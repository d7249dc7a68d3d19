"""ipslabel: object-detection labels from indoor-positioning beacons.

Generates 2D image boxes and 3D LiDAR-frame boxes for tagged objects from
beacon measurements, a calibrated camera extrinsic (PnP + RANSAC with a
planar height constraint), and a generalized-RANSAC point-cloud refiner,
verified end-to-end against a built-in synthetic scene simulator.

Importing the package loads none of its modules; import the one you use.
Each pipeline stage (``python -m ipslabel.cli``) has one module, which holds
its driver, the function from the stage's input files to its output files:

- ``ipslabel.sim``: the synthetic scene and dataset (``generate_dataset``)
- ``ipslabel.calib``: PnP + RANSAC camera calibration (``write_calibration``)
- ``ipslabel.labelgen``: boxes from beacon pairs (``write_labels``)
- ``ipslabel.refine``: point-cloud refinement of the boxes (``write_refined_labels``)
- ``ipslabel.eval``: IoU comparison and the downsample study (``write_comparison``,
  ``write_downsample_study``)

They share ``geom`` (rigid transforms, the pinhole projection of
camera-frame points, beacon frames, and beacon readings: ``BeaconPair`` and
``beacons.csv``), ``cloud`` (PLY files of clouds, which are read-only (N, 3)
arrays), ``fileio`` (files and the checked dict form), ``config`` (the config
dataclasses of every stage, ``CameraIntrinsics``, ``ObjectSpec``, and
``Rig``: all that the stages read of a dataset's manifest), ``errors``
(typed errors) and ``rng`` (seeded streams). ``labelgen`` reads the
calibration report, so only the stages that calibrate or simulate load
``calib``.
"""

__version__ = "0.1.0"
