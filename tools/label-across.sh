#!/bin/sh
# Compare `mrkit label`'s bytes across interpreters.
#
# usage: sh tools/label-across.sh PYTHON...   (from the checkout's root)
#
# Runs `label` on the bundled manifest under each PYTHON, at root seeds 42
# and 7, and compares the CSV and stderr bytes with the first PYTHON's.
# Prints one `same:`, `DIFFERS:` or `FAILED:` line per run, and exits 1 if
# any run differs or fails (2 when no PYTHON is given).
[ $# -gt 0 ] || { echo "usage: sh tools/label-across.sh PYTHON..." >&2; exit 2; }
dir=$(mktemp -d) || exit 2
trap 'rm -r "$dir"' EXIT
status=0
for seed in 42 7; do
  rm -f "$dir/first"
  for py in "$@"; do
    rm -f "$dir/labels.csv"
    PYTHONPATH=src "$py" -m mrkit label --manifest src/mrkit/data/manifest.csv \
      --seed "$seed" --out "$dir/labels.csv" 2> "$dir/stderr"
    code=$?
    if [ $code -ne 0 ]; then
      echo "FAILED: $py seed $seed (exit $code)"
      status=1
      continue
    fi
    (cd "$dir" && sha256sum labels.csv stderr) > "$dir/this"
    [ "$py" = "$1" ] && cp "$dir/this" "$dir/first"
    if cmp -s "$dir/first" "$dir/this"; then
      echo "same: $py seed $seed"
    else
      echo "DIFFERS: $py seed $seed"
      status=1
    fi
  done
done
exit $status
