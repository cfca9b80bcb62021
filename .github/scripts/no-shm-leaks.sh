#!/usr/bin/env bash
# Run a command; fail if it fails or if the multiprocessing resource
# tracker reports leaked shared-memory segments on stderr.
#
#   .github/scripts/no-shm-leaks.sh python -m repro diff --tuples 4096
#
# Stderr goes through a pipe, so the check also waits for the tracker
# process, which prints its warning after the command itself has exited.
set -uo pipefail
log=$(mktemp)
{ "$@" 2>&1 1>&3 3>&- | tee "$log" >&2; } 3>&1
status=$?
if grep -q "resource_tracker.*leaked shared_memory" "$log"; then
  echo "error: the run leaked shared-memory segments (see stderr above)" >&2
  exit 1
fi
exit "$status"
