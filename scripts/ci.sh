#!/usr/bin/env bash
# Offline CI gate for the workspace.
#
# The environment this runs in has no network and no cargo registry cache,
# so everything must resolve from path dependencies alone. This script is
# the contract: release build + the whole test suite offline (unit,
# integration and property tests alike), and an audit that no external
# (registry) dependency sneaks back into any manifest.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# Every crate's tests/props.rs is part of this run: the in-repo proptest
# engine is a plain dev-dependency, no feature flag.
echo "==> cargo test -q --offline"
cargo test -q --offline

# Kernel dispatch gate: the digest and compress suites (unit + property)
# must also pass with dispatch pinned to the scalar reference kernels via
# DHUB_FORCE_SCALAR=1 — the same suites already ran native (dispatched
# SIMD) above, so together the two runs prove both sides of every
# equivalence assertion. Explicitly-requested kernels (`with_kernel`)
# ignore the override, so the SIMD-vs-scalar property tests still exercise
# the SIMD code paths even under the pin.
echo "==> kernel gate: digest/compress suites under DHUB_FORCE_SCALAR=1"
DHUB_FORCE_SCALAR=1 cargo test -q --offline -p dhub-digest -p dhub-compress

# Replayability is part of the contract: one property suite re-run under a
# pinned PROPTEST_SEED must pass identically.
echo "==> prop test replay: dhub-faults under pinned PROPTEST_SEED"
PROPTEST_SEED=0x00000000002a2a2a \
    cargo test -q --offline -p dhub-faults --test props

# The chaos suite: full crawl→download pipeline under deterministic fault
# injection, asserting byte-identical datasets with retries on. Includes
# the mirror gate: the study pulled through a dhub-mirror edge tier must
# be byte-identical to the direct run at fault rates 0 / 5 / 20 %, survive
# a killed origin shard, and reconcile every dhub_mirror_* counter against
# the report and the Prometheus exposition.
echo "==> chaos suite: tests/chaos.rs (incl. mirror tier gates)"
cargo test -q --offline -p dhub-study --test chaos

# Observability gate: a seeded faulted study writes a metrics snapshot that
# must reconcile exactly with the Table 1 counters the same run printed —
# the reports are *derived from* the counters, so any drift is a bug.
echo "==> obs gate: metrics snapshot reconciles with printed Table 1"
OBS_SNAP=$(mktemp /tmp/dhub-obs-snap.XXXXXX)
OBS_OUT=$(mktemp /tmp/dhub-obs-out.XXXXXX)
./target/release/dhub summary --repos 25 --seed 5 --scale 1024 --threads 2 \
    --fault-rate 0.1 --fault-seed 7 --max-retries 16 \
    --metrics-snapshot "$OBS_SNAP" > "$OBS_OUT"
python3 - "$OBS_SNAP" "$OBS_OUT" <<'EOF'
import json
import re
import sys

snap = json.load(open(sys.argv[1]))
out = open(sys.argv[2]).read()
assert snap["schema"] == "dhub-obs-snapshot-v1", snap.get("schema")

def table(label):
    m = re.search(re.escape(label) + r"\s*: (\d+)", out)
    assert m, f"missing Table 1 line {label!r}"
    return int(m.group(1))

checks = {
    "dhub_crawl_raw_results_total": "search results (raw)",
    "dhub_download_images_ok_total": "images downloaded",
    "dhub_download_unique_layers_total": "unique compressed layers",
    "dhub_download_layer_fetches_skipped_total": "layer fetches skipped (dedup)",
    "dhub_download_retries_total": "transient retries",
    "dhub_download_corrupt_retries_total": "- digest-verify refetches",
    "dhub_download_gave_up_total": "retry give-ups",
    "dhub_analyze_files_total": "files analyzed",
    "dhub_analyze_bytes_total": "layer bytes analyzed",
}
bad = []
for counter, label in checks.items():
    want = table(label)
    got = snap["counters"].get(counter)
    if got != want:
        bad.append(f"{counter}={got} but Table 1 {label!r}={want}")
if bad:
    print("FAIL: snapshot does not reconcile with Table 1:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print(f"obs gate: {len(checks)} snapshot counters reconcile with Table 1")
EOF
rm -f "$OBS_SNAP" "$OBS_OUT"

# Fused store gate: the single-pass analyze+ingest pipeline behind
# `dhub store` must reconcile its own snapshot — every layer the analyzer
# profiled is exactly one store ingest (downloads are digest-verified, so
# no analysis errors; unique layers are analyzed once), and the printed
# `layers` line is the same number again from the store's point of view.
echo "==> store gate: fused analyze+ingest counters reconcile"
STORE_SNAP=$(mktemp /tmp/dhub-store-snap.XXXXXX)
STORE_OUT=$(mktemp /tmp/dhub-store-out.XXXXXX)
./target/release/dhub store --repos 25 --seed 5 --scale 1024 --threads 2 \
    --fault-rate 0.1 --fault-seed 7 --max-retries 16 \
    --metrics-snapshot "$STORE_SNAP" > "$STORE_OUT"
python3 - "$STORE_SNAP" "$STORE_OUT" <<'EOF'
import json
import re
import sys

snap = json.load(open(sys.argv[1]))
out = open(sys.argv[2]).read()
layers = int(re.search(r"layers\s*: (\d+)", out).group(1))
c = snap["counters"]
bad = []
if c.get("dhub_store_ingests_total") != layers:
    bad.append(f"dhub_store_ingests_total={c.get('dhub_store_ingests_total')} but printed layers={layers}")
if c.get("dhub_analyze_layers_total") != layers:
    bad.append(f"dhub_analyze_layers_total={c.get('dhub_analyze_layers_total')} but printed layers={layers}")
if c.get("dhub_analyze_errors_total", 0) != 0:
    bad.append(f"dhub_analyze_errors_total={c.get('dhub_analyze_errors_total')} on digest-verified blobs")
if bad:
    print("FAIL: fused store snapshot does not reconcile:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print(f"store gate: {layers} layers analyzed == ingested, zero analysis errors")
EOF
rm -f "$STORE_SNAP" "$STORE_OUT"

# Persistence gate: a study ingested into an on-disk store must answer
# `dhub query` from disk alone with exactly the numbers the ingest run
# printed, a faulted ingest (write crashes + wire faults, retried) must
# leave a store whose query answers are byte-identical to the clean run's,
# and a re-run over a populated store must resume instead of re-ingesting.
echo "==> persist gate: ingest -> reopen -> query reconciles, faulted == clean"
PERSIST_CLEAN=$(mktemp -d /tmp/dhub-persist-clean.XXXXXX)
PERSIST_FAULT=$(mktemp -d /tmp/dhub-persist-fault.XXXXXX)
PERSIST_OUT=$(mktemp /tmp/dhub-persist-out.XXXXXX)
rm -rf "$PERSIST_CLEAN" "$PERSIST_FAULT"
./target/release/dhub store --repos 25 --seed 5 --scale 1024 --threads 2 \
    --store-dir "$PERSIST_CLEAN" > "$PERSIST_OUT"
./target/release/dhub query "$PERSIST_CLEAN" dedup > "$PERSIST_OUT.q"
python3 - "$PERSIST_OUT" "$PERSIST_OUT.q" <<'EOF'
import re
import sys

ingest = open(sys.argv[1]).read()
query = open(sys.argv[2]).read()
bad = []
for label in ["layers", "unique objects", "logical bytes", "physical bytes"]:
    want = int(re.search(re.escape(label) + r"\s*: (\d+)", ingest).group(1))
    m = re.search(re.escape(label) + r"\s*: (\d+)", query)
    if not m:
        bad.append(f"query missing {label!r}")
    elif int(m.group(1)) != want:
        bad.append(f"query {label}={m.group(1)} but ingest printed {want}")
if bad:
    print("FAIL: query does not reconcile with the ingest run:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("persist gate: query answers reconcile with the ingest run's printed stats")
EOF
# Faulted ingest into a second store: same query answers, byte for byte.
./target/release/dhub store --repos 25 --seed 5 --scale 1024 --threads 2 \
    --fault-rate 0.2 --fault-seed 7 --max-retries 16 \
    --store-dir "$PERSIST_FAULT" > /dev/null
for q in summary dedup top-types layer-percentiles; do
    ./target/release/dhub query "$PERSIST_CLEAN" "$q" > "$PERSIST_OUT.clean"
    ./target/release/dhub query "$PERSIST_FAULT" "$q" > "$PERSIST_OUT.fault"
    cmp -s "$PERSIST_OUT.clean" "$PERSIST_OUT.fault" \
        || { echo "FAIL: query '$q' diverged between clean and faulted stores" >&2; exit 1; }
done
echo "persist gate: 4 query outputs byte-identical across clean and faulted stores"
# Resume: the same ingest again must replay, not re-ingest — and the
# replay must read and verify each object once, not once per layer that
# references it: the run's object-read counters are its own printed totals.
./target/release/dhub store --repos 25 --seed 5 --scale 1024 --threads 2 \
    --store-dir "$PERSIST_CLEAN" --metrics-snapshot "$PERSIST_OUT.snap" > "$PERSIST_OUT.resume"
grep -q "resuming store with" "$PERSIST_OUT.resume" \
    || { echo "FAIL: second run over a populated store did not resume" >&2; exit 1; }
echo "persist gate: populated store resumed instead of re-ingesting"
python3 - "$PERSIST_OUT.snap" "$PERSIST_OUT.resume" <<'EOF'
import json
import re
import sys

c = json.load(open(sys.argv[1]))["counters"]
out = open(sys.argv[2]).read()
bad = []
for counter, label in [("dhub_persist_reads_total", "unique objects"),
                       ("dhub_persist_read_bytes_total", "physical bytes")]:
    want = int(re.search(re.escape(label) + r"\s*: (\d+)", out).group(1))
    if c.get(counter) != want:
        bad.append(f"{counter}={c.get(counter)} but the run printed {label} {want}")
if bad:
    print("FAIL: reopen did not read each object exactly once:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("persist gate: reopen read and verified each object exactly once")
EOF
rm -rf "$PERSIST_CLEAN" "$PERSIST_FAULT" "$PERSIST_OUT" "$PERSIST_OUT.q" \
    "$PERSIST_OUT.clean" "$PERSIST_OUT.fault" "$PERSIST_OUT.resume" "$PERSIST_OUT.snap"

# Queue gate: the lease-based worker fleet must produce byte-identical
# query answers at 1 and 4 workers, and a fleet killed mid-run by its
# --max-commits crash budget must answer queries from the half-finished
# store (durable recipe replay) and then resume to the same bytes.
echo "==> queue gate: dhub work fleet — 1 vs 4 workers, kill + resume"
QUEUE_W1=$(mktemp -d /tmp/dhub-queue-w1.XXXXXX)
QUEUE_W4=$(mktemp -d /tmp/dhub-queue-w4.XXXXXX)
QUEUE_KILL=$(mktemp -d /tmp/dhub-queue-kill.XXXXXX)
QUEUE_STORE=$(mktemp -d /tmp/dhub-queue-store.XXXXXX)
QUEUE_OUT=$(mktemp /tmp/dhub-queue-out.XXXXXX)
rm -rf "$QUEUE_W1" "$QUEUE_W4" "$QUEUE_KILL" "$QUEUE_STORE"
./target/release/dhub work --repos 25 --seed 5 --scale 1024 --workers 1 \
    --store-dir "$QUEUE_W1" --metrics-snapshot "$QUEUE_OUT.w1.snap" > "$QUEUE_OUT.w1.out"
./target/release/dhub work --repos 25 --seed 5 --scale 1024 --workers 4 \
    --store-dir "$QUEUE_W4" --metrics-snapshot "$QUEUE_OUT.w4.snap" > "$QUEUE_OUT.w4.out"
for q in summary dedup top-types layer-percentiles; do
    ./target/release/dhub query "$QUEUE_W1" "$q" > "$QUEUE_OUT.w1"
    ./target/release/dhub query "$QUEUE_W4" "$q" > "$QUEUE_OUT.w4"
    cmp -s "$QUEUE_OUT.w1" "$QUEUE_OUT.w4" \
        || { echo "FAIL: query '$q' diverged between 1- and 4-worker fleets" >&2; exit 1; }
done
echo "queue gate: 4 query outputs byte-identical across 1- and 4-worker fleets"
# Fleet half of the obs gate: the queue schedules the batch path's steps,
# so a fleet's deterministic crawl / download / analyze counters are those
# of `dhub store --store-dir` on the same arguments, at any worker count —
# and, as in the store gate, every analyzed layer is exactly one ingest
# and the printed `layers` line is that number again.
./target/release/dhub store --repos 25 --seed 5 --scale 1024 --threads 2 \
    --store-dir "$QUEUE_STORE" --metrics-snapshot "$QUEUE_OUT.store.snap" > /dev/null
python3 - "$QUEUE_OUT" <<'EOF'
import json
import re
import sys

base = sys.argv[1]
names = [
    "dhub_crawl_pages_fetched_total", "dhub_crawl_raw_results_total",
    "dhub_crawl_dedup_hits_total", "dhub_crawl_pages_gave_up_total",
    "dhub_download_images_ok_total", "dhub_download_unique_layers_total",
    "dhub_download_bytes_total", "dhub_download_layer_fetches_skipped_total",
    "dhub_download_failed_auth_total", "dhub_download_failed_no_latest_total",
    "dhub_download_failed_other_total", "dhub_analyze_layers_total",
    "dhub_analyze_files_total", "dhub_analyze_bytes_total", "dhub_analyze_errors_total",
]
store = json.load(open(base + ".store.snap"))["counters"]
bad = [f"store run exports no {n}" for n in names if n not in store]
for w in ["w1", "w4"]:
    c = json.load(open(f"{base}.{w}.snap"))["counters"]
    bad += [f"{w}: {n}={c.get(n)} but store --store-dir has {store.get(n)}"
            for n in names if c.get(n) != store.get(n)]
    layers = int(re.search(r"layers\s*: (\d+)", open(f"{base}.{w}.out").read()).group(1))
    for n in ["dhub_store_ingests_total", "dhub_analyze_layers_total"]:
        if c.get(n) != layers:
            bad.append(f"{w}: {n}={c.get(n)} but printed layers={layers}")
if bad:
    print("FAIL: fleet counters do not reconcile:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print(f"queue gate: {len(names)} counters identical across store --store-dir and 1/4-worker fleets")
EOF
# Budget 40 lands the kill mid-layer-ingest: pages + the 25 image jobs
# commit first (under 30 together), so at least a dozen layer commits —
# and so a partially populated store for the resume check — are
# guaranteed before the fleet dies, whatever order workers claim in.
./target/release/dhub work --repos 25 --seed 5 --scale 1024 --workers 4 \
    --max-commits 40 --store-dir "$QUEUE_KILL" > "$QUEUE_OUT.kill"
grep -q "fleet killed after" "$QUEUE_OUT.kill" \
    || { echo "FAIL: --max-commits did not kill the fleet" >&2; exit 1; }
./target/release/dhub query "$QUEUE_KILL" dedup > "$QUEUE_OUT.mid"
grep -q "replaying" "$QUEUE_OUT.mid" \
    || { echo "FAIL: mid-ingest query did not fall back to recipe replay" >&2; exit 1; }
./target/release/dhub work --repos 25 --seed 5 --scale 1024 --workers 4 \
    --store-dir "$QUEUE_KILL" > "$QUEUE_OUT.resume"
grep -q "resuming store with" "$QUEUE_OUT.resume" \
    || { echo "FAIL: rerun over the killed store did not resume" >&2; exit 1; }
for q in summary dedup top-types layer-percentiles; do
    ./target/release/dhub query "$QUEUE_W1" "$q" > "$QUEUE_OUT.w1"
    ./target/release/dhub query "$QUEUE_KILL" "$q" > "$QUEUE_OUT.res"
    cmp -s "$QUEUE_OUT.w1" "$QUEUE_OUT.res" \
        || { echo "FAIL: query '$q' diverged after kill + resume" >&2; exit 1; }
done
echo "queue gate: killed fleet resumed to byte-identical query answers"
rm -rf "$QUEUE_W1" "$QUEUE_W4" "$QUEUE_KILL" "$QUEUE_STORE" "$QUEUE_OUT" "$QUEUE_OUT".*

echo "==> dependency audit"
# No references to the removed external crates anywhere in crate sources.
if grep -rn "crossbeam\|parking_lot" crates/*/src; then
    echo "FAIL: external concurrency crate reference in crate sources" >&2
    exit 1
fi
# Every dependency in every manifest must be a path dependency (declared
# directly or inherited from the [workspace.dependencies] table, whose
# entries are all `{ path = ... }`).
python3 - <<'EOF'
import glob
import re
import sys

root = open("Cargo.toml").read()
ws = re.search(r"\[workspace\.dependencies\](.*?)(\n\[|\Z)", root, re.S).group(1)
ws_deps = {}
for line in ws.splitlines():
    m = re.match(r"([A-Za-z0-9_-]+)\s*=\s*(.*)", line.strip())
    if m:
        ws_deps[m.group(1)] = m.group(2)
bad = []
for name, spec in ws_deps.items():
    if "path" not in spec:
        bad.append(f"Cargo.toml: workspace dep `{name}` is not a path dependency: {spec}")

section_re = re.compile(r"^\[(.+)\]\s*$")
for manifest in sorted(glob.glob("crates/*/Cargo.toml")):
    section = ""
    for line in open(manifest):
        m = section_re.match(line.strip())
        if m:
            section = m.group(1)
            continue
        if not (section.endswith("dependencies")):
            continue
        m = re.match(r"([A-Za-z0-9_-]+)\s*(?:\.workspace)?\s*=\s*(.*)", line.strip())
        if not m:
            continue
        name, spec = m.groups()
        if "workspace" in line and name in ws_deps:
            continue  # inherited; audited above
        if "path" not in spec:
            bad.append(f"{manifest}: `{name}` is not a path dependency: {spec}")
if bad:
    print("FAIL: non-path dependencies found:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("dependency audit: all manifests resolve from path dependencies only")
EOF

# Entry-point audit: the study / download / analyze families are one
# skeleton each (DESIGN.md "what varies -> where it lives"). A new
# `run_study_*` / `download_all_*` / `analyze_*` spelling has to replace
# one of these, not sit beside it.
echo "==> entry-point audit"
ENTRY_RE="pub fn (run_study|download_all|analyze_and_ingest|analyze_layer|analyze_all)[a-z_]*"
ENTRY_POINTS=$(grep -rhoE "$ENTRY_RE" crates/*/src | wc -l)
if [ "$ENTRY_POINTS" -gt 16 ]; then
    echo "FAIL: $ENTRY_POINTS public study/download/analyze entry points (limit 16):" >&2
    grep -rnoE "$ENTRY_RE" crates/*/src >&2
    exit 1
fi
echo "entry-point audit: $ENTRY_POINTS public entry points (limit 16)"

# Retry-loop audit: `RetryPolicy::run` is the one loop (DESIGN.md 6c), so
# nothing outside its file sleeps a policy's schedule (`policy.sleep(key, n)`
# is how the four hand-rolled loops it replaced did).
echo "==> retry-loop audit"
if grep -rnE '\.sleep\(key' crates/*/src | grep -v '^crates/faults/src/retry.rs:'; then
    echo "FAIL: a retry loop outside RetryPolicy::run sleeps the schedule itself" >&2
    exit 1
fi
echo "retry-loop audit: no retry loop outside crates/faults/src/retry.rs"

# Serve-path audit (DESIGN.md 6e): a request costs what its bytes cost. The
# accept loop blocks in `accept` — no polling listener, no sleep between
# polls; the only sleep either end may take is the injected slow-link
# fault's — and the client keeps its connections alive, so it never asks
# the server to close one.
echo "==> serve-path audit"
python3 - <<'EOF'
import re
import sys

RULES = [
    (r"set_nonblocking\(\s*true\s*\)", "polls a non-blocking socket", ("server", "client")),
    (r"thread::sleep\((?!.*slow_link)", "sleeps outside the slow_link fault", ("server", "client")),
    (r'"connection"\s*,\s*"close"', "writes a `connection: close` request header", ("client",)),
]
bad = []
for name in ("server", "client"):
    path = f"crates/registry/src/http/{name}.rs"
    for n, line in enumerate(open(path), 1):
        if line.strip() == "#[cfg(test)]":
            break
        if line.lstrip().startswith("//"):
            continue
        bad += [f"{path}:{n}: {what}: {line.strip()}"
                for pattern, what, files in RULES if name in files and re.search(pattern, line)]
if bad:
    print("FAIL: the serve path waits on something other than its sockets:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("serve-path audit: blocking accept, no sleep but slow_link, client never asks to close")
EOF

# Construction-site audit: `StudyData` is assembled in one place
# (`assemble_study`) and the crawl / download reports are derived from
# their counters in one place each, whichever scheduler ran. A second
# struct literal outside test code is a second pipeline.
echo "==> construction-site audit"
python3 - <<'EOF'
import glob
import re
import sys

literal = re.compile(r"(?<![\w>] )\b(StudyData|CrawlReport|DownloadReport) \{")
sites = {"StudyData": [], "CrawlReport": [], "DownloadReport": []}
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    for n, line in enumerate(open(path), 1):
        if line.strip() == "#[cfg(test)]":
            break
        m = literal.search(line)
        if m and not line.lstrip().startswith("//"):
            sites[m.group(1)].append(f"{path}:{n}")
bad = {k: v for k, v in sites.items() if len(v) != 1}
if bad:
    print("FAIL: expected exactly one struct literal each outside test code:", file=sys.stderr)
    for k, v in sorted(bad.items()):
        print(f"  {k}: {', '.join(v) or 'none'}", file=sys.stderr)
    sys.exit(1)
print("construction-site audit: " + ", ".join(f"{k} at {v[0]}" for k, v in sorted(sites.items())))
EOF

# Caller audit (ROADMAP 4d): nothing ships without a reader. Every `pub`
# fn / const / type declared in shipping code (before the file's
# `#[cfg(test)]`) must be named by shipping code of another file — under
# crates/*/src, examples/ or the frozen bench/src — or carry a reason in
# scripts/pub_allow.txt. Tests are not callers: an item only tests reach is
# deleted with them, made private, or listed as the oracle / kernel /
# fixture it is. The match is textual, so names too common for a text hit
# to mean anything are skipped outright rather than passed on a false one.
echo "==> caller audit"
python3 - <<'EOF'
import glob
import re
import sys

STOP = set("""new len is_empty get put parse on finish name stats with_metrics build
to_json from_json count fast claim update contains open load save iter insert remove
read write lock wait sum min max sample""".split())
decl = re.compile(r"^\s*pub (?:(?:const|unsafe) )*(fn|const|struct|enum|trait|type) (\w+)")


def shipping(path):
    """The file's non-comment lines before its `#[cfg(test)]`."""
    out = []
    for line in open(path):
        if line.strip() == "#[cfg(test)]":
            break
        if not line.lstrip().startswith("//"):
            out.append(line)
    return "".join(out)


text = {}
for pat in ["crates/*/src/**/*.rs", "examples/*.rs", "bench/src/*.rs"]:
    for path in sorted(glob.glob(pat, recursive=True)):
        text[path] = shipping(path)
# A re-export names a fn or const without calling it, so it is no caller.
# A type travels by inference (whoever calls `carve()` holds a `Carving`
# without spelling it), so for types the re-export is all the naming there
# may be, and counts.
reexport = re.compile(r"\bpub use [^;]*;")
named = {p: set(re.findall(r"\w+", t)) for p, t in text.items()}
called = {p: set(re.findall(r"\w+", reexport.sub("", t))) for p, t in text.items()}

allow, bad = {}, []
for n, line in enumerate(open("scripts/pub_allow.txt"), 1):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    key, sep, reason = line.partition(" — ")
    if not sep or not reason.strip() or reason.strip().lower() == "unused":
        bad.append(f"scripts/pub_allow.txt:{n}: want `path::name — reason`")
    allow[key.strip()] = False

audited = skipped = 0
for path, body in text.items():
    if not path.startswith("crates/") or path.startswith("crates/proptest/"):
        continue
    for line in body.splitlines():
        m = decl.match(line)
        if not m:
            continue
        kind, name = m.groups()
        if name in STOP:
            skipped += 1
            continue
        audited += 1
        refs = called if kind in ("fn", "const") else named
        if any(name in words for p, words in refs.items() if p != path):
            continue
        key = f"{path}::{name}"
        if key in allow:
            allow[key] = True
        else:
            bad.append(f"{key} ({kind}): no shipping code outside its file names it")
bad += [f"scripts/pub_allow.txt: {k} is listed but has a caller (or is gone)"
        for k, hit in allow.items() if not hit]
if bad:
    print("FAIL: public items with neither a shipping caller nor an allow-list reason:",
          file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print(f"caller audit: {audited} pub items each have a shipping caller or one of "
      f"{len(allow)} allow-list reasons ({skipped} stop-list names skipped)")
EOF

# Stale-reference audit: the legacy criterion-shaped bench crate and its
# recordings, the streaming scheduler and the channel / pool / wait-group
# substrate only those two reached, the write-only refcount manifest and
# the pacing option nobody set, the three hand-rolled retry loops, the
# origin-only endpoint set, layer removal with its refcounts and gc
# counters, the second report binary, and the blob store's store-wide
# publish lock are gone. Nothing outside the history files, the issue
# text and the frozen bench/ tree may name them again.
echo "==> stale-reference audit"
STALE_RE='dhub-bench|crates/bench|BENCH_[a-z]+\.json|DHUB_BENCH_REPOS|run_study_streaming_obs|dhub_par::pipeline|ThreadPool|WaitGroup|CoarseMap|RefManifest|manifest_is_current|pace_network|fn with_retries|fn retrying|Backend::Local|mirror_(manifest|blob|tags)_endpoint|remove_layer|dhub_store_gc_|--bin report|write_lock'
if git grep -nE "$STALE_RE" -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench' \
    | grep -v '^scripts/ci.sh:[0-9]*:STALE_RE='; then
    echo "FAIL: stale references to deleted code (listed above)" >&2
    exit 1
fi
echo "stale-reference audit: clean"

# End-to-end benchmark hook: all four BENCHMARK.json workloads in smoke
# mode with every correctness check (incl. queued tables byte-identical
# to a direct run). The driver is frozen against the public surface, so
# this is also where a signature drift fails at build time; it must leave
# its own tree — lockfile included — untouched.
echo "==> bench/run.sh --quick"
bench/run.sh --quick > /dev/null
git diff --exit-code -- bench BENCHMARK.json \
    || { echo "FAIL: bench/run.sh rewrote files under bench/" >&2; exit 1; }

echo "==> ci.sh: all gates passed"
