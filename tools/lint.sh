#!/usr/bin/env bash
# Lint gate for the fifer simulator.
#
# Runs two layers:
#   1. clang-tidy over every translation unit in src/ (skipped with a notice
#      when clang-tidy is not installed — the grep layer still runs).
#   2. Grep-based repo rules that need no toolchain:
#        - no naked `new` in src/ (ownership goes through smart pointers /
#          containers; placement of raw allocations breaks sanitizer triage)
#        - no `std::rand` / `srand` (simulation randomness must flow through
#          fifer::Rng so runs stay reproducible and seedable)
#        - every header under src/ starts include-guarding with `#pragma once`
#
# Usage: tools/lint.sh [build-dir]
#   build-dir (default: build) must contain compile_commands.json for the
#   clang-tidy layer; CMakeLists.txt exports it automatically.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
FAILED=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: FAIL: %s\n' "$*" >&2
  FAILED=1
}

# ---------------------------------------------------------------- clang-tidy
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    note "lint: running clang-tidy (compile db: $BUILD_DIR)"
    mapfile -t SOURCES < <(find "$ROOT/src" -name '*.cpp' | sort)
    if ! clang-tidy -p "$BUILD_DIR" --quiet "${SOURCES[@]}"; then
      fail "clang-tidy reported diagnostics"
    fi
  else
    fail "clang-tidy found but $BUILD_DIR/compile_commands.json is missing; configure with cmake first"
  fi
else
  note "lint: clang-tidy not installed; skipping static analysis layer"
fi

# ---------------------------------------------------------------- grep rules
# Naked new: match `new Type` expressions, excluding comments and strings as
# best grep can. placement-new and `new` inside identifiers don't match.
NAKED_NEW=$(grep -rnE '(^|[^_[:alnum:]"])new[[:space:]]+[[:alnum:]_:<]' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' |
  grep -vE '^\s*[^:]*:[0-9]+:\s*(//|\*)' || true)
if [ -n "$NAKED_NEW" ]; then
  fail "naked 'new' in src/ (use std::make_unique / containers):"
  printf '%s\n' "$NAKED_NEW" >&2
fi

RAND_USE=$(grep -rnE '(std::rand|std::srand|[^_[:alnum:]]s?rand\()' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' || true)
if [ -n "$RAND_USE" ]; then
  fail "std::rand/srand in src/ (use fifer::Rng for reproducible seeds):"
  printf '%s\n' "$RAND_USE" >&2
fi

# Raw synchronization primitives: all locking in src/ goes through the
# annotated wrappers in common/sync.hpp (fifer::Mutex / MutexLock / CondVar)
# so the thread-safety annotations and the lock-order registry see every
# acquisition. The sync module itself is exempt: it wraps std::mutex, and
# its registry deliberately uses an uninstrumented one. Comment lines are
# filtered the same way the naked-new rule does.
RAW_SYNC=$(grep -rnE \
  'std::(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' |
  grep -v "^$ROOT/src/common/sync\.\(hpp\|cpp\):" |
  grep -vE '^\s*[^:]*:[0-9]+:\s*(//|\*)' || true)
if [ -n "$RAW_SYNC" ]; then
  fail "raw std synchronization primitive in src/ (use fifer::Mutex/MutexLock/CondVar from common/sync.hpp):"
  printf '%s\n' "$RAW_SYNC" >&2
fi

# Raw socket / epoll syscalls: every network syscall in src/ lives in
# src/net/ (socket.cpp is the single capability boundary — see DESIGN.md
# §5h), so portability fixes, fd hygiene, and instrumentation have one home.
# The rule bans both the system headers and the syscall spellings; `bind` is
# deliberately not matched (std::bind false positives).
RAW_NET=$(grep -rnE \
  '#include[[:space:]]*<(sys/socket\.h|sys/epoll\.h|netinet/[a-z_/]+\.h|arpa/inet\.h)>|[^_[:alnum:]](socket|accept4?|epoll_(create1?|ctl|p?wait2?)|eventfd)[[:space:]]*\(' \
  "$ROOT/src" --include='*.cpp' --include='*.hpp' |
  grep -v "^$ROOT/src/net/" |
  grep -vE '^\s*[^:]*:[0-9]+:\s*(//|\*)' || true)
if [ -n "$RAW_NET" ]; then
  fail "raw socket/epoll use outside src/net/ (route networking through fifer::net):"
  printf '%s\n' "$RAW_NET" >&2
fi

# Allocation-free NN hot path (DESIGN.md §5i): the nn layer and optimizer
# translation units must not call the allocating Vec helpers from
# nn/matrix.hpp (each returns a fresh std::vector, which would put heap
# traffic back into forward()/backward()/step()). Hot-path math goes through
# the in-place kernels in nn/kernels.hpp over Workspace spans. matrix.cpp
# (which defines the helpers for tests and cold paths) is exempt; comment
# lines are filtered the same way the naked-new rule does.
NN_VEC_ALLOC=$(grep -rnE \
  '[^_[:alnum:]](matvec|matvec_transposed|add_outer|hadamard|scaled|tanh_vec|sigmoid_vec|relu_vec)[[:space:]]*\(' \
  "$ROOT/src/predict/nn/kernels.cpp" "$ROOT/src/predict/nn/layer.cpp" \
  "$ROOT/src/predict/nn/lstm.cpp" "$ROOT/src/predict/nn/gru.cpp" \
  "$ROOT/src/predict/nn/conv1d.cpp" "$ROOT/src/predict/nn/optimizer.cpp" \
  "$ROOT/src/predict/neural.cpp" 2>/dev/null |
  grep -vE '^\s*[^:]*:[0-9]+:\s*(//|\*)' || true)
if [ -n "$NN_VEC_ALLOC" ]; then
  fail "allocating Vec helper in an NN hot-path TU (use nn/kernels.hpp + Workspace spans):"
  printf '%s\n' "$NN_VEC_ALLOC" >&2
fi

MISSING_PRAGMA=$(find "$ROOT/src" -name '*.hpp' -print0 |
  xargs -0 grep -L '#pragma once' || true)
if [ -n "$MISSING_PRAGMA" ]; then
  fail "headers missing '#pragma once':"
  printf '%s\n' "$MISSING_PRAGMA" >&2
fi

if [ "$FAILED" -ne 0 ]; then
  note "lint: FAILED"
  exit 1
fi
note "lint: OK"
