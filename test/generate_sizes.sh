#!/bin/sh
# mae generate at the edge sizes 0, 1 and 5, for every KIND: each run
# either emits a circuit or fails with a usage error.  An exit code of
# 125 or "internal error" on stderr means an uncaught exception.
#
#   sh test/generate_sizes.sh _build/default/bin/mae_cli.exe
mae="$1"
status=0
for kind in counter alu adder decoder parity shift random; do
  for size in 0 1 5; do
    err=$("$mae" generate "$kind" --size "$size" 2>&1 >/dev/null)
    code=$?
    case "$err" in
      *"internal error"*) bad=1 ;;
      *) bad=0 ;;
    esac
    if [ "$code" -eq 125 ] || [ "$bad" -eq 1 ]; then
      echo "mae generate $kind --size $size: exit $code"
      echo "$err"
      status=1
    fi
  done
done
exit $status
