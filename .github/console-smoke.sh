# Smoke test of the installed `mixmnl` console script, run in the current
# directory by `bash -eo pipefail .github/console-smoke.sh`.  Tier-1 calls
# cli.main in process; this checks the entry point itself: two fits with
# one seed write the same bytes, evaluate reads them, an empty dataset
# exits 2, and 40 components of the n = 30 dataset exit 3 with the failing
# stage named: whitening, which runs after the unchecked completion.  The
# n = 300 dataset (1,905 pairs) is drawn twice: its sampler selects each
# row's pairs from the keys below a threshold, and both draws must write
# the same bytes.  It is also learned twice: its second-moment product is
# sized by a bound of 1.6M entries, below N^2 = 3.6M, through scipy's
# private csr_matmat, so the installed scipy must provide it.  A
# 60,000-sample n = 30 dataset is learned twice, and both runs must write
# the same bytes: its 30,000-row second-moment half is summed in two row
# blocks, which the installed scipy's csr_todense adds into one output.
# A rank-4 dataset is learned twice from its exact moments, and both runs
# must write the same bytes: that fit's third-moment right-hand side has
# m = 20 distinct entries, whose orbits take all three sizes (1, 3 and 6).
# Last, a rank-8 dataset (n = 60, 178 pairs) is learned twice from its
# exact moments, and both runs must write the same bytes: its eight Rank
# Centrality chains stop at eight different steps (572 to 869 with one
# OpenBLAS thread), so they leave the block one by one, and its power
# method steps 352 restarts a round.
set -eo pipefail
mixmnl generate --n 300 --dbar 12 --ell 40 --samples 2000 --seed 3 --out s1.json
mixmnl generate --n 300 --dbar 12 --ell 40 --samples 2000 --seed 3 --out s2.json
cmp s1.json s2.json
mixmnl learn --dataset s1.json --out t1.json --r 2 --seed 1
mixmnl learn --dataset s1.json --out t2.json --r 2 --seed 1
cmp t1.json t2.json
mixmnl generate --n 30 --ell 10 --samples 20000 --seed 3 --out d.json
mixmnl learn --dataset d.json --out r1.json --r 2 --seed 1
mixmnl learn --dataset d.json --out r2.json --r 2 --seed 1
cmp r1.json r2.json
mixmnl evaluate --dataset d.json --results r1.json
mixmnl generate --n 30 --ell 10 --samples 60000 --seed 3 --out b.json
mixmnl learn --dataset b.json --out b1.json --r 2 --seed 1
mixmnl learn --dataset b.json --out b2.json --r 2 --seed 1
cmp b1.json b2.json
echo '{}' > empty.json
status=0
mixmnl learn --dataset empty.json --out e.json --r 2 || status=$?
test "$status" -eq 2
status=0
mixmnl learn --dataset d.json --out x.json --r 40 2> x.err || status=$?
test "$status" -eq 3
grep -q "numerical failure in whitening" x.err
mixmnl generate --n 30 --r 4 --ell 10 --samples 2000 --seed 3 --out g.json
mixmnl learn --dataset g.json --out g1.json --exact-moments --r 4
mixmnl learn --dataset g.json --out g2.json --exact-moments --r 4
cmp g1.json g2.json
mixmnl generate --n 60 --r 8 --ell 10 --samples 2000 --seed 3 --out h.json
mixmnl learn --dataset h.json --out h1.json --exact-moments --r 8
mixmnl learn --dataset h.json --out h2.json --exact-moments --r 8
cmp h1.json h2.json
