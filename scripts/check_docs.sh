#!/usr/bin/env bash
# Docs gate (run by the CI docs job, usable locally):
#   1. every relative markdown link in docs/*.md and README.md resolves
#      to an existing file,
#   2. the `rpe_cli <subcommand>` headings of docs/CLI.md and the built
#      binary's --help list name the same commands, and README.md and
#      docs/*.md name no `rpe_cli <subcommand>` that --help does not list
#      (a retired command leaves no stale example behind),
#   3. every code symbol the guides (docs/TRAINING.md, SERVING.md,
#      ROBUSTNESS.md, NETWORK.md, BENCHMARKS.md, CLI.md, OBSERVABILITY.md
#      and PAPER_MAP.md) reference in backticks still exists somewhere
#      under src/ (or bench/, tests/, tools/ for bench rows, test files
#      and CLI flags) — the guides must not drift from the code,
#   4. docs/OBSERVABILITY.md's metric catalog has a row for every metric
#      name src/ registers, and no row for a name nothing registers, and
#   5. every `bench_<name>` binary that README.md, docs/*.md or the
#      verify skill names is a target of CMakeLists.txt or
#      perfbench/CMakeLists.txt (a deleted bench leaves no stale
#      command behind; the lowercase name escapes check 3).
#
# usage: scripts/check_docs.sh [path/to/rpe_cli]
set -u

cd "$(dirname "$0")/.."
RPE_CLI="${1:-./build/rpe_cli}"
failures=0

# --- 1. internal links -----------------------------------------------------
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  # Markdown inline links: capture the (target) part, strip anchors.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | \#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      failures=$((failures + 1))
    fi
  done < <(grep -oE '\[[^]]+\]\([^)]+\)' "$doc" | sed -E 's/^\[[^]]+\]\(([^)]+)\)$/\1/')
done

# --- 2. documented subcommands match --help --------------------------------
if [ ! -x "$RPE_CLI" ]; then
  echo "rpe_cli binary not found/executable at $RPE_CLI"
  exit 1
fi
help_output=$("$RPE_CLI" --help)
commands=$(grep -oE '^### `rpe_cli [a-z-]+`' docs/CLI.md |
  sed -E 's/^### `rpe_cli ([a-z-]+)`$/\1/')
if [ -z "$commands" ]; then
  # Guard against the gate passing vacuously after a heading reformat.
  echo "NO SUBCOMMANDS EXTRACTED from docs/CLI.md (expected '### \`rpe_cli <cmd>\`' headings)"
  failures=$((failures + 1))
fi
while IFS= read -r cmd; do
  [ -z "$cmd" ] && continue
  if ! printf '%s\n' "$help_output" | grep -qE "^  $cmd( |\$)"; then
    echo "UNDOCUMENTED-IN-BINARY: docs/CLI.md names subcommand '$cmd' but rpe_cli --help does not list it"
    failures=$((failures + 1))
  fi
done <<EOF
$commands
EOF
help_commands=$(printf '%s\n' "$help_output" | grep -oE '^  [a-z][a-z-]*' |
  sed 's/^  //')
if [ -z "$help_commands" ]; then
  echo "NO SUBCOMMANDS EXTRACTED from rpe_cli --help (expected '  <cmd>  <summary>' lines)"
  failures=$((failures + 1))
fi
while IFS= read -r cmd; do
  [ -z "$cmd" ] && continue
  if ! printf '%s\n' "$commands" | grep -qxF "$cmd"; then
    echo "UNDOCUMENTED-IN-CLI.md: rpe_cli --help lists '$cmd' but docs/CLI.md has no '### \`rpe_cli $cmd\`' heading"
    failures=$((failures + 1))
  fi
done <<EOF
$help_commands
EOF
# Command mentions: inline code (`rpe_cli x`), paths (build/rpe_cli x) and
# code lines that start with the bare binary name.
for doc in README.md docs/*.md; do
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    cmd="${hit##* }"
    if ! printf '%s\n' "$help_commands" | grep -qxF "$cmd"; then
      echo "RETIRED COMMAND: $doc:${hit%%:*} names 'rpe_cli $cmd' but rpe_cli --help does not list it"
      failures=$((failures + 1))
    fi
  done < <(grep -noE '(^|[`/])rpe_cli [a-z][a-z-]*' "$doc")
done

# --- 3. guide symbols still exist ------------------------------------------
# Backticked tokens that look like code symbols — qualified names
# (`Class::Member`), CamelCase identifiers, or k-prefixed constants — must
# appear somewhere in the sources. Lowercase/prose tokens are skipped.
for guide in docs/TRAINING.md docs/SERVING.md docs/ROBUSTNESS.md \
  docs/NETWORK.md docs/BENCHMARKS.md docs/CLI.md docs/OBSERVABILITY.md \
  docs/PAPER_MAP.md; do
  [ -f "$guide" ] || continue
  symbols=$(grep -oE '`[A-Za-z_][A-Za-z0-9_:()]*`' "$guide" |
    tr -d '\`' | sed 's/()$//' | sort -u)
  checked=0
  while IFS= read -r sym; do
    [ -z "$sym" ] && continue
    case "$sym" in
      *::*) ;;                # qualified name: check its last component
      k[A-Z]*) ;;             # constant
      [A-Z]*[a-z]*) ;;        # CamelCase type/function/bench row
      *) continue ;;          # prose-ish token
    esac
    checked=$((checked + 1))
    base="${sym##*::}"
    if ! grep -rqF "$base" src/ bench/ tests/ tools/; then
      echo "STALE SYMBOL: $guide references '$sym' but '$base' is not in src/, bench/, tests/ or tools/"
      failures=$((failures + 1))
    fi
  done <<EOF
$symbols
EOF
  if [ "$checked" -eq 0 ]; then
    # Guard against the gate passing vacuously after a formatting change.
    echo "NO SYMBOLS EXTRACTED from $guide (expected backticked identifiers)"
    failures=$((failures + 1))
  fi
done

# --- 4. metric catalog ------------------------------------------------------
# Registered = every string literal passed to GetCounter / GetGauge /
# GetHistogram or Sample::CounterSample / GaugeSample under src/ (calls
# may wrap, so the sources are joined first). Cataloged = the first cell
# of each row of the catalog table, up to any `{label}` suffix.
registered=$(find src -name '*.cc' -o -name '*.h' | sort | xargs cat |
  tr '\n' ' ' |
  grep -oE '(GetCounter|GetGauge|GetHistogram|CounterSample|GaugeSample)\( *"[A-Za-z0-9_:]+"' |
  sed -E 's/.*"([^"]+)"$/\1/' | sort -u)
cataloged=$(awk '/^## Metric catalog/ {on = 1; next} /^## / {on = 0} on' \
  docs/OBSERVABILITY.md | grep -oE '^\| `[A-Za-z0-9_:]+' |
  sed -E 's/^\| `//' | sort -u)
if [ -z "$registered" ] || [ -z "$cataloged" ]; then
  # Guard against the gate passing vacuously after a refactor.
  echo "NO METRIC NAMES EXTRACTED (registered: $(echo "$registered" | wc -w), cataloged: $(echo "$cataloged" | wc -w))"
  failures=$((failures + 1))
fi
for name in $(comm -23 <(echo "$registered") <(echo "$cataloged")); do
  echo "UNCATALOGED METRIC: src/ registers '$name' but docs/OBSERVABILITY.md has no row for it"
  failures=$((failures + 1))
done
for name in $(comm -13 <(echo "$registered") <(echo "$cataloged")); do
  echo "STALE METRIC: docs/OBSERVABILITY.md catalogs '$name' but nothing under src/ registers it"
  failures=$((failures + 1))
done

# --- 5. bench binaries exist -------------------------------------------------
# A `bench_<name>` token not preceded by a word character or a dot (so
# `.bench_build/` and `perfbench_schedule` are not binaries) must be an
# add_executable target.
bench_targets=$(grep -ohE 'add_executable\(bench_[a-z0-9_]+' CMakeLists.txt \
  perfbench/CMakeLists.txt | sed 's/^add_executable(//' | sort -u)
if [ -z "$bench_targets" ]; then
  echo "NO BENCH TARGETS EXTRACTED from CMakeLists.txt / perfbench/CMakeLists.txt"
  failures=$((failures + 1))
fi
for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -f "$doc" ] || continue
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    name=$(printf '%s\n' "$hit" | grep -oE 'bench_[a-z0-9_]+$')
    if ! printf '%s\n' "$bench_targets" | grep -qxF "$name"; then
      echo "STALE BENCH: $doc:${hit%%:*} names '$name' but no CMakeLists.txt builds it"
      failures=$((failures + 1))
    fi
  done < <(grep -noE '(^|[^.A-Za-z0-9_])bench_[a-z0-9_]+' "$doc")
done

if [ "$failures" -ne 0 ]; then
  echo "check_docs: $failures failure(s)"
  exit 1
fi
echo "check_docs: links resolve, documented subcommands match --help, guide symbols are live, metric catalog is complete, bench names are targets"
