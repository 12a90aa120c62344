#!/usr/bin/env sh
# Full verification gate: release build, the whole test suite, and a
# warning-free clippy pass over every target. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

cargo build --release
# Throughput floors, in one release-mode test: scaled stream ingest,
# parallel and filtered parse, warm snapshot load, and faild at 4
# clients and at 64 connections, each with the correctness checks that
# make its rate meaningful (see tests/tests/throughput_floors.rs). It
# runs before the long test and lint steps, which leave a small shared
# host measurably slower for a while. The test is ignored in debug
# builds, so the plain `cargo test` below skips it.
cargo test --release -q -p failsuite --test throughput_floors -- --include-ignored
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark gate: the frozen harness under perfbench/ builds against
# the workspace's public API and its own tests pass, so an API change
# that breaks it fails here instead of in a benchmark run. Cargo
# rewrites perfbench/Cargo.lock when the workspace's dependency set
# changes; restore it, so verification never edits the benchmark's
# files.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo build --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
if [ "$perfbench_status" -eq 0 ]; then
    cargo test --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
fi
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"
if [ "$perfbench_status" -ne 0 ]; then
    echo "verify: the perfbench harness no longer builds or passes its tests against the workspace" >&2
    exit 1
fi

# Streaming subsystem gate: the record-by-record state must equal the
# batch pipeline, and an injected MTTR regression must raise an alert.
cargo test -q -p failsuite --test stream_equivalence

# Filter-pushdown gate, part 2: a `--where` report must be
# byte-identical to the report of an expected input constructed
# independently with awk — keep the 7 header lines, then only rows
# whose ttr_h column (field 3) exceeds 48.
flt_dir=$(mktemp -d)
flt_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
cargo run -q --release -p failctl -- \
    generate --system tsubame3 --out "$flt_dir/flt.fslog" >/dev/null
awk -F, 'NR <= 7 || $3 + 0 > 48' "$flt_dir/flt.fslog" > "$flt_dir/expected.fslog"
cargo run -q --release -p failctl -- report "$flt_dir/flt.fslog" \
    --sections "$flt_sections" --where 'ttr > 48' > "$flt_dir/where.txt"
cargo run -q --release -p failctl -- report "$flt_dir/expected.fslog" \
    --sections "$flt_sections" > "$flt_dir/expected.txt"
cmp -s "$flt_dir/where.txt" "$flt_dir/expected.txt" || {
    echo "verify: --where report differs from the awk-filtered expected report" >&2
    exit 1
}
rm -rf "$flt_dir"

# Snapshot gate, part 2: through the CLI, `index build` then a warm
# `--index require` report must be byte-identical to the cold report
# over the analysis sections, at more than one thread count.
idx_dir=$(mktemp -d)
idx_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
cargo run -q --release -p failctl -- \
    generate --system tsubame3 --out "$idx_dir/idx.fslog" >/dev/null
cargo run -q --release -p failctl -- report "$idx_dir/idx.fslog" \
    --sections "$idx_sections" > "$idx_dir/cold.txt"
cargo run -q --release -p failctl -- index build "$idx_dir/idx.fslog" >/dev/null
for t in 1 4; do
    cargo run -q --release -p failctl -- report "$idx_dir/idx.fslog" \
        --sections "$idx_sections" --index require --threads "$t" \
        > "$idx_dir/warm$t.txt"
    cmp -s "$idx_dir/cold.txt" "$idx_dir/warm$t.txt" || {
        echo "verify: warm --index require report differs from cold at --threads $t" >&2
        exit 1
    }
done
rm -rf "$idx_dir"

# Server gate, part 2: a real `faild` process serving both canonical
# seed logs over a Unix socket. Cold queries must be byte-identical to
# the direct CLI report, warm repeats byte-identical to cold, four
# concurrent clients must all get the same bytes, and a graceful
# shutdown must persist a `.fsidx` snapshot next to each cold-parsed
# log.
srv_dir=$(mktemp -d)
srv_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
for system in tsubame2 tsubame3; do
    cargo run -q --release -p failctl -- \
        generate --system "$system" --out "$srv_dir/$system.fslog" >/dev/null
done
cargo run -q --release -p failctl -- serve --socket "$srv_dir/faild.sock" \
    > "$srv_dir/serve.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -S "$srv_dir/faild.sock" ] && break
    sleep 0.1
done
[ -S "$srv_dir/faild.sock" ] || {
    echo "verify: faild did not bind its socket" >&2
    exit 1
}
for system in tsubame2 tsubame3; do
    cargo run -q --release -p failctl -- report "$srv_dir/$system.fslog" \
        --sections "$srv_sections" > "$srv_dir/$system.cli.txt"
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/$system.fslog" --sections "$srv_sections" \
        > "$srv_dir/$system.cold.txt"
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/$system.fslog" --sections "$srv_sections" \
        > "$srv_dir/$system.warm.txt"
    cmp -s "$srv_dir/$system.cli.txt" "$srv_dir/$system.cold.txt" || {
        echo "verify: faild cold query differs from the direct CLI report for $system" >&2
        exit 1
    }
    cmp -s "$srv_dir/$system.cold.txt" "$srv_dir/$system.warm.txt" || {
        echo "verify: faild warm query differs from its cold query for $system" >&2
        exit 1
    }
done
client_pids=""
for client in 1 2 3 4; do
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/tsubame2.fslog" --sections "$srv_sections" \
        > "$srv_dir/client$client.txt" &
    client_pids="$client_pids $!"
done
for pid in $client_pids; do
    wait "$pid" || {
        echo "verify: concurrent faild client exited non-zero" >&2
        exit 1
    }
done
for client in 1 2 3 4; do
    cmp -s "$srv_dir/tsubame2.cli.txt" "$srv_dir/client$client.txt" || {
        echo "verify: concurrent faild client $client diverged from the CLI report" >&2
        exit 1
    }
done
# Catalog smoke: `logs` must list both cached seed logs, `evict` must
# drop one so its next query runs cold (the response bytes still
# byte-identical to the CLI report).
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    logs > "$srv_dir/catalog.txt"
grep -q "faild: 2 cached logs" "$srv_dir/catalog.txt" || {
    echo "verify: faild logs did not list 2 cached logs" >&2
    cat "$srv_dir/catalog.txt" >&2
    exit 1
}
grep -q "tsubame3.fslog: records=" "$srv_dir/catalog.txt" || {
    echo "verify: faild logs catalog is missing the tsubame3 entry" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    evict "$srv_dir/tsubame3.fslog" | grep -q "evicted" || {
    echo "verify: faild evict did not report an eviction" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    logs | grep -q "faild: 1 cached log" || {
    echo "verify: faild logs still lists the evicted log" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    report "$srv_dir/tsubame3.fslog" --sections "$srv_sections" \
    > "$srv_dir/tsubame3.postevict.txt"
cmp -s "$srv_dir/tsubame3.cli.txt" "$srv_dir/tsubame3.postevict.txt" || {
    echo "verify: post-evict faild query differs from the direct CLI report" >&2
    exit 1
}
# Watch over a log long enough to compact the quantile sketches
# (~11k records): the daemon's stream must equal the CLI's byte for
# byte, and some summary must come from the sketched path.
cargo run -q --release -p failctl -- scenario --nodes 1408 --mtbf 0.8 \
    --days 365 --seed 3 --out "$srv_dir/compacting.fslog" >/dev/null
cargo run -q --release -p failctl -- watch "$srv_dir/compacting.fslog" \
    --refresh 1000 > "$srv_dir/watch.cli.txt"
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    watch "$srv_dir/compacting.fslog" --refresh 1000 > "$srv_dir/watch.faild.txt"
cmp -s "$srv_dir/watch.cli.txt" "$srv_dir/watch.faild.txt" || {
    echo "verify: faild watch differs from the direct CLI watch on a compacting log" >&2
    exit 1
}
grep -q "(sketched)" "$srv_dir/watch.cli.txt" || {
    echo "verify: the compacting watch never printed a (sketched) summary" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    shutdown >/dev/null
wait "$srv_pid" || {
    echo "verify: faild exited non-zero" >&2
    exit 1
}
for system in tsubame2 tsubame3; do
    [ -f "$srv_dir/$system.fslog.fsidx" ] || {
        echo "verify: faild shutdown did not persist $system.fslog.fsidx" >&2
        exit 1
    }
done
rm -rf "$srv_dir"

# Gzip ingest smoke: the same log written plain and as .fslog.gz must
# produce byte-identical reports (input is sniffed by magic bytes and
# inflated in memory — no temp files, no external tooling).
gz_dir=$(mktemp -d)
cargo run -q --release -p failctl -- \
    generate --system tsubame2 --out "$gz_dir/smoke.fslog" >/dev/null
cargo run -q --release -p failctl -- \
    generate --system tsubame2 --out "$gz_dir/smoke.fslog.gz" >/dev/null
cargo run -q --release -p failctl -- report "$gz_dir/smoke.fslog" \
    > "$gz_dir/plain.txt"
cargo run -q --release -p failctl -- report "$gz_dir/smoke.fslog.gz" \
    > "$gz_dir/packed.txt"
cmp -s "$gz_dir/plain.txt" "$gz_dir/packed.txt" || {
    echo "verify: gzip report differs from the plain-text report" >&2
    exit 1
}
rm -rf "$gz_dir"

watch_trace=$(mktemp)
smoke=$(cargo run -q --release -p failctl -- \
    watch sim:tsubame2 --accel max --inject-mttr 5 --trace "$watch_trace")
echo "$smoke" | grep -q '"kind":"mttr_regression"' || {
    echo "verify: failctl watch smoke test did not alert on the injected regression" >&2
    exit 1
}
# The traced watch loop must account for every ingested record.
grep -q '"stage":"watch.records_ingested"' "$watch_trace" || {
    echo "verify: traced watch smoke run did not record watch.records_ingested" >&2
    exit 1
}
rm -f "$watch_trace"

# JSON report gate: a `{"v":1,"kind":"report"}` version header line,
# then one well-formed NDJSON line per section with the stable
# {id, title, data} shape, on both canonical models.
if command -v jq >/dev/null 2>&1; then
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    for system in tsubame2 tsubame3; do
        log="$tmpdir/$system.fslog"
        cargo run -q --release -p failctl -- \
            generate --system "$system" --out "$log" >/dev/null
        cargo run -q --release -p failctl -- report "$log" --format json \
            | jq -e -s 'length == 11
                and .[0].v == 1
                and .[0].kind == "report"
                and .[1].id == "header"
                and .[-1].id == "metrics"
                and all(.[1:][]; has("id") and has("title") and has("data"))' \
            >/dev/null || {
            echo "verify: failctl report --format json schema gate failed for $system" >&2
            exit 1
        }
    done

    # Trace gate: the deterministic NDJSON trace export must be valid,
    # carry the known record kinds, and be byte-identical at any thread
    # count.
    trace1="$tmpdir/trace1.ndjson"
    trace4="$tmpdir/trace4.ndjson"
    cargo run -q --release -p failctl -- \
        report --model tsubame2 --seed 42 --threads 1 --trace "$trace1" \
        >/dev/null
    cargo run -q --release -p failctl -- \
        report --model tsubame2 --seed 42 --threads 4 --trace "$trace4" \
        >/dev/null
    cmp -s "$trace1" "$trace4" || {
        echo "verify: trace export differs between --threads 1 and --threads 4" >&2
        exit 1
    }
    jq -e -s 'length > 0
        and all(.[]; has("kind") and has("id") and has("stage"))
        and all(.[]; .kind == "counter" or .kind == "hist" or .kind == "span")
        and any(.[]; .kind == "counter" and .stage == "sim.records_generated")
        and any(.[]; .kind == "span" and .stage == "index.logview")' \
        "$trace4" >/dev/null || {
        echo "verify: failctl report --trace NDJSON schema gate failed" >&2
        exit 1
    }
else
    echo "verify: jq not found, skipping the JSON schema gate" >&2
fi

# API docs must build warning-free.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "verify: build + tests + clippy + perfbench build and tests + streaming gate + throughput floors + filter gate + index gate + server gate + gzip smoke + json gate + trace gate + docs all green"
