#!/bin/sh
# The validator and the replayer must agree on what is a valid trace: on
# each malformed fixture below, tir-validate and tir-replay both exit
# non-zero and print the same "error: <file>:<where>: <reason>" line (or,
# for what only the trace set shows, "error: process P action #I: ...").
#
# Usage: validate_replay_agree.sh TIR-VALIDATE TIR-REPLAY TIR-SWEEP
#                                 TIR-GENTRACE WORKDIR
set -u
validate=$1 replay=$2 sweep=$3 gentrace=$4 work=$5
rm -rf "$work"
mkdir -p "$work"
status=0

# agree NAME EXPECT VALIDATE-FLAGS TRACE...: runs both tools on the trace
# arguments, the validator with the extra flags (unquoted, may be empty).
# Both must fail with one identical error line containing EXPECT.
agree() {
  name=$1 expect=$2 flags=$3
  shift 3
  # shellcheck disable=SC2086
  "$validate" $flags "$@" >"$work/$name.validate" 2>&1
  v=$?
  "$replay" --platform cluster:hosts=2 --deployment block "$@" \
    >"$work/$name.replay" 2>&1
  r=$?
  verr=$(grep '^error: ' "$work/$name.validate")
  rerr=$(grep '^error: ' "$work/$name.replay")
  if [ "$v" -eq 0 ] || [ "$r" -eq 0 ]; then
    echo "FAIL $name: exit codes validate=$v replay=$r"
    status=1
  elif [ "$verr" != "$rerr" ]; then
    echo "FAIL $name: the tools disagree"
    echo "  tir-validate: $verr"
    echo "  tir-replay:   $rerr"
    status=1
  elif ! printf '%s\n' "$verr" | grep -qF "$expect"; then
    echo "FAIL $name: expected '$expect' in '$verr'"
    status=1
  else
    echo "ok   $name: $verr"
  fi
}

# A bad keyword: the line number names the offending line.
mkdir -p "$work/keyword"
printf 'p0 compute 5\np0 warp 9\n' >"$work/keyword/SG_process0.trace"
printf 'p1 compute 5\n' >"$work/keyword/SG_process1.trace"
agree keyword "keyword/SG_process0.trace:2: unknown trace action keyword 'warp'" \
  "" "$work/keyword"

# A wild pid in a merged file: p4294967297 does not fit a process id and
# must not wrap to p1.
printf 'p0 compute 5\np4294967297 compute 5\n' >"$work/merged.trace"
agree wild-pid "merged.trace:2: process id '4294967297' out of range" \
  "--merged 2" "$work/merged.trace"

# An out-of-range partner: it must not wrap to a send to p1.
mkdir -p "$work/partner"
printf 'p0 send p4294967297 100\n' >"$work/partner/SG_process0.trace"
printf 'p1 recv p0 100\n' >"$work/partner/SG_process1.trace"
agree partner "partner/SG_process0.trace:1: partner '4294967297' out of range" \
  "" "$work/partner"

# Range errors only the trace set can see, named by process and action
# index: a partner inside int but outside [0, nprocs), and a split-layout
# record labelled for another process.
mkdir -p "$work/nprocs"
printf 'p0 compute 5\np0 send p9 100\n' >"$work/nprocs/SG_process0.trace"
printf 'p1 compute 5\n' >"$work/nprocs/SG_process1.trace"
agree partner-nprocs "process 0 action #1: send with partner 9 outside [0, 2)" \
  "" "$work/nprocs"
mkdir -p "$work/label"
printf 'p0 compute 5\np1 compute 5\n' >"$work/label/SG_process0.trace"
printf 'p1 compute 5\n' >"$work/label/SG_process1.trace"
agree foreign-label \
  "process 0 action #1: action labelled for process 1 in process 0's stream" \
  "" "$work/label"

# Truncated binary and compact files: the error names the byte offset.
for codec in binary compact; do
  "$gentrace" --out "$work/$codec" --pattern cg --ranks 2 --iterations 20 \
    --codec "$codec" >/dev/null || exit 1
  file="$work/$codec/SG_process1.trace"
  size=$(wc -c <"$file")
  head -c $((size - 3)) "$file" >"$file.cut" && mv "$file.cut" "$file"
  agree "truncated-$codec" "$codec/SG_process1.trace: byte " "" "$work/$codec"
done

# The merged layout's pid range: the validator and a sweep that replays
# the merged file report the same line.
printf 'p0 compute 5\np1 compute 5\np5 compute 5\n' >"$work/range.trace"
expect="range.trace:3: action for process 5 but nprocs is 2"
"$validate" --merged 2 "$work/range.trace" >"$work/range.validate" 2>&1
v=$?
printf 'name=range platform=cluster:hosts=2 deployment=block merged=%s:2\n' \
  "$work/range.trace" >"$work/range.list"
"$sweep" "$work/range.list" >"$work/range.sweep" 2>&1
s=$?
if [ "$v" -eq 0 ] || [ "$s" -eq 0 ] ||
  ! grep -qF "error: $work/$expect" "$work/range.validate" ||
  ! grep -qF "$work/$expect" "$work/range.sweep"; then
  echo "FAIL merged-range: validate=$v sweep=$s"
  cat "$work/range.validate" "$work/range.sweep"
  status=1
else
  echo "ok   merged-range: $expect"
fi

exit $status
