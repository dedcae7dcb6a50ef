#!/usr/bin/env bash
# Docs gate (run by the CI docs job, usable locally):
#   1. every relative markdown link in docs/*.md and README.md resolves
#      to an existing file,
#   2. every `rpe_cli <subcommand>` documented in docs/CLI.md exists in
#      the built binary's --help output, and
#   3. every code symbol docs/TRAINING.md, docs/SERVING.md,
#      docs/ROBUSTNESS.md, docs/NETWORK.md and docs/CLI.md reference in
#      backticks still exists somewhere under src/ (or bench/, tests/,
#      tools/ for bench rows, test files and CLI flags) — the guides
#      must not drift from the code, and
#   4. docs/OBSERVABILITY.md's metric catalog has a row for every metric
#      name src/ registers, and no row for a name nothing registers.
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

# --- 2. documented subcommands exist ---------------------------------------
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

# --- 3. guide symbols still exist ------------------------------------------
# Backticked tokens that look like code symbols — qualified names
# (`Class::Member`), CamelCase identifiers, or k-prefixed constants — must
# appear somewhere in the sources. Lowercase/prose tokens are skipped.
for guide in docs/TRAINING.md docs/SERVING.md docs/ROBUSTNESS.md \
  docs/NETWORK.md docs/BENCHMARKS.md docs/CLI.md docs/OBSERVABILITY.md; do
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

if [ "$failures" -ne 0 ]; then
  echo "check_docs: $failures failure(s)"
  exit 1
fi
echo "check_docs: links resolve, documented subcommands exist, guide symbols are live, metric catalog is complete"
