#!/usr/bin/env bash
# Run the seeded pipeline end to end with the ipslabel package found in SRC
# and write every output under OUT, so that two source trees can be checked
# for byte-identical outputs with `diff -r OUT_A OUT_B`.
#
# Usage: tools/e2e_outputs.sh SRC OUT
#   SRC  directory holding the ipslabel package (a checkout's src/)
#   OUT  output directory (created if missing; an earlier run's files are replaced)
#
# For each of eight configs (none; pixel_noise_sigma 1.0; the same written as
# strict JSON, which ipslabel reads with json rather than PyYAML;
# pixel_noise_sigma 1.0 with a 32-channel 0.1-degree LiDAR at --jobs 2 over 10 samples, the dense_jobs2
# benchmark workload, where --jobs 2 exercises refine's worker pool, the only
# one, and whose cabinets in sample_004 and sample_009 have every
# free-space candidate crossed; the default objects plus a third one that is
# wholly behind the camera in sample_000; pixel_noise_sigma 1.0 with a 2 px
# inlier gate, so calibration keeps only part of the 63 correspondences and
# its output depends on which RANSAC hypothesis wins; the fixed 20-sample
# pixel_noise_sigma 1.0 workload, whose 40 refined objects show last-bit
# changes in the proposal geometry that 3 samples miss; a 64-channel
# 0.1-degree LiDAR at --jobs 1, whose scans of about 111K points end every
# block of rays and of points ragged) it runs, at --seed 7:
# simulate --samples N (3; 10 with the dense LiDAR; 20 for pipeline20) ->
# calibrate --dataset -> generate -> refine -> evaluate --auto refined
# --reference ds/truth, plus one downsample study. A ninth config,
# frozen_fixture, calibrates the correspondences frozen in SRC/../tests/fixtures
# (so each tree reads fixtures in the format it parses) at the default 2000
# RANSAC iterations and --seed 20, with and without the planar constraint, at
# the default 8 px gate and at --delta-px 2, so the comparison also covers
# calibrations outside a simulated dataset.
# Stages run inside OUT/<config> with relative paths, so the stdout kept in
# OUT/<config>/stdout.txt does not depend on where OUT is.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
fixtures=$(cd "$src/../tests/fixtures" && pwd)  # the fixtures of SRC's own checkout
mkdir -p "$2"
out=$(cd "$2" && pwd)
export PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1

run_config() {  # run_config NAME JOBS SAMPLES [CONFIG TEXT]; runs inside OUT/NAME
    local name=$1 jobs=$2 samples=$3 text=${4:-}
    local flags=(--seed 7 --jobs "$jobs")
    rm -rf "${out:?}/$name"  # simulate needs a new or empty dataset directory
    mkdir -p "$out/$name"
    cd "$out/$name"
    : > stdout.txt
    if [ -n "$text" ]; then
        printf '%s\n' "$text" > cfg.yaml
        flags=(--config cfg.yaml "${flags[@]}")
    fi
    stage() { python -m ipslabel.cli "${flags[@]}" "$@" >> stdout.txt; }
    stage simulate --out ds --samples "$samples"
    stage calibrate --dataset ds --out cal.json
    stage generate --dataset ds --calibration cal.json --out labels
    stage refine --dataset ds --labels labels --out refined
    stage evaluate --auto refined --reference ds/truth --out eval.json
    stage evaluate --study downsample --dataset ds --labels labels \
        --sample sample_000 --object-id obj0 --proportions 0.5,1.0 --trials 2 \
        --out study.json --csv study.csv
}

run_config default 1 3
run_config pixel_noise 1 3 "scene: {pixel_noise_sigma: 1.0}"
run_config pixel_noise_json 1 3 '{"scene": {"pixel_noise_sigma": 1.0}}'
run_config dense_lidar 2 10 \
    "scene: {pixel_noise_sigma: 1.0, lidar: {channels: 32, azimuth_step_deg: 0.1}}"
run_config behind_camera 1 3 "scene: {objects: [
    {id: obj0, class: cabinet, dims: [0.9, 0.5, 1.3], x: 4.0, y: 0.9, yaw: 0.4},
    {id: obj1, class: table, dims: [1.2, 0.8, 0.75], x: 3.4, y: -1.6, yaw: -0.3},
    {id: obj2, class: cabinet, dims: [0.9, 0.5, 1.3], x: -5.0, y: 0.0, yaw: 1.0}]}"
run_config tight_gate 1 3 "scene: {pixel_noise_sigma: 1.0}
calibration: {delta_px: 2.0}"
run_config pipeline20 1 20 "scene: {pixel_noise_sigma: 1.0}"
run_config wide_lidar 1 3 "scene: {lidar: {channels: 64, azimuth_step_deg: 0.1}}"

rm -rf "${out:?}/frozen_fixture"
mkdir -p "$out/frozen_fixture"
cd "$out/frozen_fixture"
: > stdout.txt
for mode in planar no-planar; do
    for delta in 8 2; do
        python -m ipslabel.cli --seed 20 calibrate \
            --correspondences "$fixtures/correspondences.csv" \
            --robot-beacons "$fixtures/robot_beacons.csv" \
            --manifest "$fixtures/manifest.json" \
            "--$mode" --delta-px "$delta" --out "cal_${mode}_$delta.json" >> stdout.txt
    done
done
echo "wrote outputs to $out"
