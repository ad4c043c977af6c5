#!/bin/sh
# cedarfs end to end on the small geometry: format a volume, replay a
# recorded workload trace and crash without shutdown, mount again (which
# replays the log) for info, check that the next mount is clean, then ls
# and scrub.
#
#   sh cedarfs_smoke.sh <work dir> <cedarfs binary> <workloadgen binary>
set -e
img="$1/cedarfs_smoke.img"
trace="$1/cedarfs_smoke.trace"
cedarfs="$2"
workloadgen="$3"

"$cedarfs" "$img" mkfs
"$workloadgen" record "$trace" --ops 300 --seed 7
"$cedarfs" "$img" replay "$trace" --crash
"$cedarfs" "$img" info | tee "$1/cedarfs_smoke.info"
grep -q '^mount: recovered' "$1/cedarfs_smoke.info"
# Every command but --crash shuts down cleanly, read-only ones included.
"$cedarfs" "$img" info | tee "$1/cedarfs_smoke.info"
grep -q '^mount: clean$' "$1/cedarfs_smoke.info"
# The trace ends in a force, so its files survive the crash. The tenant
# mix names its files t<k>/f<rank>.db.
"$cedarfs" "$img" ls t | tee "$1/cedarfs_smoke.ls"
tail -n 1 "$1/cedarfs_smoke.ls" | grep -v '^0 files'
"$cedarfs" "$img" scrub
rm -f "$img" "$trace" "$1/cedarfs_smoke.ls" "$1/cedarfs_smoke.info"
