# Smoke test of the installed `mixmnl` console script, run in the current
# directory by `bash -eo pipefail .github/console-smoke.sh`.  Tier-1 calls
# cli.main in process; this checks the entry point itself: two fits with
# one seed write the same bytes, evaluate reads them, and an empty dataset
# exits 2.
set -eo pipefail
mixmnl generate --n 30 --ell 10 --samples 20000 --seed 3 --out d.json
mixmnl learn --dataset d.json --out r1.json --r 2 --seed 1
mixmnl learn --dataset d.json --out r2.json --r 2 --seed 1
cmp r1.json r2.json
mixmnl evaluate --dataset d.json --results r1.json
echo '{}' > empty.json
status=0
mixmnl learn --dataset empty.json --out e.json --r 2 || status=$?
test "$status" -eq 2
