#!/bin/sh
# Usage: serverd_flags_test.sh <path to example_qkc_serverd>
#
# Each bad flag value must be refused before the daemon opens a socket:
# exit status 2 and a `qkc_serverd: <reason>` line on stderr. `timeout`
# bounds a daemon that wrongly starts serving instead.
serverd=$1
for flag in --cache=0 --coalesce=0 --cache=-1 --coalesce=-1 --inflight=-1 \
            --memory-gb=-1 --port=65536 --port=-1; do
    status=0
    err=$(timeout 10 "$serverd" --port=0 "$flag" 2>&1 >/dev/null) || status=$?
    if [ "$status" -ne 2 ]; then
        echo "$flag: exit status $status, want 2"
        exit 1
    fi
    case $err in
      "qkc_serverd: "*) echo "$flag -> $err" ;;
      *) echo "$flag: stderr '$err' lacks the qkc_serverd: prefix"; exit 1 ;;
    esac
done
