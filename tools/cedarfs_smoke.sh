#!/bin/sh
# cedarfs end to end on the small geometry: format a volume, replay a
# synthesized workload trace and crash without shutdown, mount again (which
# replays the log) for info and ls, then scrub.
#
#   sh cedarfs_smoke.sh <work dir> <cedarfs binary> <workloadgen binary>
set -e
img="$1/cedarfs_smoke.img"
trace="$1/cedarfs_smoke.trace"
cedarfs="$2"
workloadgen="$3"

"$cedarfs" "$img" mkfs
"$workloadgen" synthesize "$trace" --ops 300 --seed 7
"$cedarfs" "$img" replay "$trace" --crash
"$cedarfs" "$img" info
# The trace ends in a force, so its files survive the crash.
"$cedarfs" "$img" ls t/ | tee "$1/cedarfs_smoke.ls"
tail -n 1 "$1/cedarfs_smoke.ls" | grep -v '^0 files'
"$cedarfs" "$img" scrub
rm -f "$img" "$trace" "$1/cedarfs_smoke.ls"
