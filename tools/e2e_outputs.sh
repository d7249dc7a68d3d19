#!/usr/bin/env bash
# Run the seeded pipeline end to end with the ipslabel package found in SRC
# and write every output under OUT, so that two source trees can be checked
# for byte-identical outputs with `diff -r OUT_A OUT_B`.
#
# Usage: tools/e2e_outputs.sh SRC OUT
#   SRC  directory holding the ipslabel package (a checkout's src/)
#   OUT  output directory (created if missing; an earlier run's files are replaced)
#
# For each of three configs (none; pixel_noise_sigma 1.0; the same with a
# 32-channel 0.1-degree LiDAR at --jobs 2) it runs, at --seed 7:
# simulate --samples 3 -> calibrate --dataset -> generate -> refine ->
# evaluate --auto refined --reference ds/truth, plus one downsample study.
# Stages run inside OUT/<config> with relative paths, so the stdout kept in
# OUT/<config>/stdout.txt does not depend on where OUT is.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1

run_config() {  # run_config NAME JOBS [CONFIG TEXT]; runs inside OUT/NAME
    local name=$1 jobs=$2 text=${3:-}
    local flags=(--seed 7 --jobs "$jobs")
    mkdir -p "$out/$name"
    cd "$out/$name"
    : > stdout.txt
    if [ -n "$text" ]; then
        printf '%s\n' "$text" > cfg.yaml
        flags=(--config cfg.yaml "${flags[@]}")
    fi
    stage() { python -m ipslabel.cli "${flags[@]}" "$@" >> stdout.txt; }
    stage simulate --out ds --samples 3
    stage calibrate --dataset ds --out cal.json
    stage generate --dataset ds --calibration cal.json --out labels
    stage refine --dataset ds --labels labels --out refined
    stage evaluate --auto refined --reference ds/truth --out eval.json
    stage evaluate --study downsample --dataset ds --labels labels \
        --sample sample_000 --object-id obj0 --proportions 0.5,1.0 --trials 2 \
        --out study.json --csv study.csv
}

run_config default 1
run_config pixel_noise 1 "scene: {pixel_noise_sigma: 1.0}"
run_config dense_lidar 2 \
    "scene: {pixel_noise_sigma: 1.0, lidar: {channels: 32, azimuth_step_deg: 0.1}}"
echo "wrote outputs to $out"
