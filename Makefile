GO ?= go

.PHONY: build test fuzz profile-upload profile-scan bench-test bench-agree lint compat fmt loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The decoders of stored bytes (a saved directory's manifest and checksum
# files and the Hadoop++ baseline's trojan blocks among them), the
# upload's line parser against ParseLine + AppendRow, its scalar
# scanners against ParseFixed and its date parse against time.Parse, the
# float formatter the scan prints with,
# the annotation parser, and the engine against its text oracle (FuzzEngine: a whole upload and one to three jobs per
# input), 20 s each (go test takes one fuzz target per run). Their seeds
# run as ordinary tests under `make test`. Inputs are tens of KB, so
# minimizing each new one for the default 60 s would eat the whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzNewReader$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/pax
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/pax
	$(GO) test -run '^$$' -fuzz '^FuzzAppendLine$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/pax
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzIndexUnmarshal$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzBlockReader$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/trojan
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/hdfs
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/schema
	$(GO) test -run '^$$' -fuzz '^FuzzScanFixed$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/schema
	$(GO) test -run '^$$' -fuzz '^FuzzParseDate$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/schema
	$(GO) test -run '^$$' -fuzz '^FuzzParseAnnotation$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime 20s -fuzzminimizetime 10x ./internal/core

# CPU and allocation profiles of the ledger's upload op (BenchmarkUploadBob:
# 100k lines, Bob's layout, fresh 4-node cluster), for the perf PR that
# acts on them: go tool pprof -top core.test upload.cpu.pprof. The same
# for its plain-text denominator (BenchmarkUploadPlain: hadoop.Uploader
# over the same lines and cluster), into plain-upload.*.pprof. The parse
# alone, one 2 MB block of lines through pax.Block.AppendLine, is
# BenchmarkAppendLine: go test -run '^$' -bench AppendLine ./internal/pax.
profile-upload:
	$(GO) test -run '^$$' -bench '^BenchmarkUploadBob$$' -benchtime 10x -o core.test \
		-cpuprofile upload.cpu.pprof -memprofile upload.mem.pprof ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkUploadPlain$$' -benchtime 10x -o core.test \
		-cpuprofile plain-upload.cpu.pprof -memprofile plain-upload.mem.pprof ./internal/core

# The same for the ledger's two scan ops as bench/ runs them, the
# compatibility Run (BenchmarkWideScanPassthrough,
# BenchmarkIndexScanPassthrough; 200k lines, Bob's layout): go tool pprof
# -top core.test wide-scan.cpu.pprof. The Stream pair is the same two
# shapes as haild and hailquery run them, a passthrough job streamed and
# its rows taken as haild's handler takes them (BenchmarkWideScanStream,
# BenchmarkIndexScanStream), into *-stream.*.pprof.
# BenchmarkIndexScanOpen is the index scan's fixed per-block path alone
# (windows below the data: every block opened, no row read), into
# index-open.*.pprof.
profile-scan:
	$(GO) test -run '^$$' -bench '^BenchmarkWideScanPassthrough$$' -benchtime 30x -o core.test \
		-cpuprofile wide-scan.cpu.pprof -memprofile wide-scan.mem.pprof ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkIndexScanPassthrough$$' -benchtime 2000x -o core.test \
		-cpuprofile index-scan.cpu.pprof -memprofile index-scan.mem.pprof ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkWideScanStream$$' -benchtime 30x -o core.test \
		-cpuprofile wide-scan-stream.cpu.pprof -memprofile wide-scan-stream.mem.pprof ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkIndexScanStream$$' -benchtime 2000x -o core.test \
		-cpuprofile index-scan-stream.cpu.pprof -memprofile index-scan-stream.mem.pprof ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkIndexScanOpen$$' -benchtime 20000x -o core.test \
		-cpuprofile index-open.cpu.pprof -memprofile index-open.mem.pprof ./internal/core

# bench/ is its own module (the BENCHMARK.json ledger; see bench/README.md),
# so the targets above never reach it.
bench-test:
	$(GO) test -C bench ./...

# Compare two result directories written by the benchmark, e.g. parent vs
# change: make bench-agree A=/tmp/parent-out B=bench/out
bench-agree:
	$(GO) run -C bench -buildvcs=false . -agree $(A) $(B)

# The same lane CI's lint job runs: formatting, vet, and the repo's own
# invariant analyzers — all seven, the per-package rules (genbump,
# wallclock, errsink, leaflock), the compatibility-surface check
# (benchonly) and the whole-module dataflow proofs (sigflow, goleak); see
# ARCHITECTURE.md "Statically enforced invariants". staticcheck runs
# when installed — CI pins it; the offline dev container may not have it.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/hailint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs it pinned)"; fi

# The compatibility surface bench/ compiles against (each package's
# compat.go, and what is tagged Deprecated: bench/ only) stays bench/'s:
# hailint's benchonly alone, which `make lint` runs with the rest.
compat:
	$(GO) run ./cmd/hailint -analyzers benchonly ./...

fmt:
	gofmt -w .

# The size ROADMAP item 4 tracks, so every simplicity PR quotes the same
# numbers: non-test and test Go lines outside bench/ and the lint
# fixtures, and the two top-level documents. A helper moved into a
# _test.go file shows on both sides of the count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 cat | wc -l | xargs echo "test Go lines:"
	@cat README.md ARCHITECTURE.md | wc -l | xargs echo "README.md + ARCHITECTURE.md lines:"
