#!/usr/bin/env bash
# Reachability audit: lists the non-test functions of module mtexc that
# no shipped binary links. Every cmd/*, examples/* and
# bench/mtexcbench is built with inlining off (-gcflags=all=-l), so a
# called function keeps its own symbol, and the T/t symbols of
# `go tool nm` are diffed against the func declarations of the
# module's non-test files. Names read "importpath.Func" or
# "importpath.Type.Method".
#
# Usage (from the repository root):
#   scripts/deadcode.sh          fail on any name missing from deadcode.baseline.txt
#   scripts/deadcode.sh -write   rewrite deadcode.baseline.txt
#
# The diff sees calls, not intent: a method kept only to satisfy an
# interface, or a generic method whose instantiated symbol does not
# match its declaration, is listed too. Read each name before deleting.
set -euo pipefail

GO=${GO:-go}
baseline=deadcode.baseline.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Linked symbols. A main package's symbols read "main.X"; rename them
# to the package's import path so they match its declarations.
: > "$tmp/linked"
for dir in cmd/* examples/* bench/mtexcbench; do
	[ -d "$dir" ] || continue
	bin="$tmp/bin"
	if [ "$dir" = bench/mtexcbench ]; then
		(cd bench && $GO build -gcflags=all=-l -o "$bin" ./mtexcbench)
		path=mtexc/bench/mtexcbench
	else
		$GO build -gcflags=all=-l -o "$bin" "./$dir"
		path=mtexc/$dir
	fi
	$GO tool nm "$bin" |
		awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
		sed -e "s#^main\.#$path.#" >> "$tmp/linked"
done
# Normalize: drop generic instantiation brackets (innermost first),
# method-value wrappers and pointer receivers, then keep only names
# of the form path.Func or path.Type.Method.
sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
	-e 's/-fm$//' -e 's/(\*\([A-Za-z0-9_]*\))/\1/' "$tmp/linked" |
	grep -E '^[A-Za-z0-9_./-]+\.[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)?$' |
	sort -u > "$tmp/linked.norm"

# Declared functions of the module's non-test files (init excluded:
# it has no callers to find).
$GO list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r path file; do
		sed -n -E \
			-e "s#^func \\([A-Za-z0-9_]* ?\\*?([A-Za-z0-9_]+)(\\[[^]]*\\])?\\) ([A-Za-z0-9_]+).*#$path.\\1.\\3#p" \
			-e "s#^func ([A-Za-z0-9_]+).*#$path.\\1#p" "$file"
	done | grep -v '\.init$' | sort -u > "$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked.norm" > "$tmp/unlinked"

if [ "${1:-}" = -write ]; then
	cp "$tmp/unlinked" "$baseline"
	echo "deadcode: wrote $(wc -l < "$baseline") names to $baseline"
	exit 0
fi
new=$(comm -23 "$tmp/unlinked" <(sort -u "$baseline"))
gone=$(comm -13 "$tmp/unlinked" <(sort -u "$baseline"))
if [ -n "$gone" ]; then
	echo "deadcode: now linked or deleted, drop from $baseline:"
	echo "$gone" | sed 's/^/  /'
fi
if [ -n "$new" ]; then
	echo "deadcode: functions no binary links, missing from $baseline:"
	echo "$new" | sed 's/^/  /'
	echo "delete them, give them a caller, or (if kept on purpose) regenerate with scripts/deadcode.sh -write"
	exit 1
fi
echo "deadcode: $(wc -l < "$tmp/unlinked") unlinked functions, all in $baseline"
