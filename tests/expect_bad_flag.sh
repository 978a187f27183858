#!/bin/sh
# Usage: expect_bad_flag.sh BINARY --flag=VALUE
#
# Passes when BINARY rejects the flag while parsing its arguments: exit
# status 2 and a "bad --flag value" message on stderr. Only pass values the
# parser rejects; an accepted value would start the binary's real work.
bin=$1
arg=$2
flag=${arg%%=*}
out=$("$bin" "$arg" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2 for $arg, got $status"
  exit 1
fi
case $out in
*"bad $flag value"*) exit 0 ;;
esac
echo "the message does not name $flag"
exit 1
