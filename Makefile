# mtexc — reproduction of "The Use of Multithreading for Exception
# Handling" (MICRO-32, 1999). Standard targets:
#
#   make build        compile everything
#   make test         full test suite (includes slow harness tests)
#   make test-short   quick tests only
#   make bench        one benchmark per paper table/figure
#   make bench-compare  headline benchmarks -> out/BENCH_<stamp>.json
#   make bench-json   machine-readable snapshots of the headline runs
#   make lint         go vet + mtexc-lint invariant analyzers
#   make experiments  regenerate every table and figure (minutes)
#   make report       automated claim-by-claim reproduction report
#   make fuzz         short burst of every fuzz target
#   make fuzz-long    longer differential-fuzzing soak (not a PR gate)
#   make resume-check kill-and-resume determinism of the journal
#   make faultinject-smoke  transient-fault campaign + replay determinism

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test test-short bench bench-compare bench-json experiments report vet lint lint-sarif fmt clean cover fuzz fuzz-long resume-check faultinject-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static invariant checks: go vet plus the repo's own analyzer suite
# (determinism, fingerprint purity, uop-pool lifetimes, hot-path stat
# discipline, plus the interprocedural dettaint/atomiclint/hotpathlint
# passes). See docs/analysis.md.
lint: vet
	$(GO) run ./cmd/mtexc-lint ./...

# SARIF export + baseline gate: writes the full (pre-baseline) finding
# set to out/lint.sarif and exits nonzero only on findings not covered
# by the committed lint.baseline.json. CI uploads the SARIF file as an
# artifact; regenerate the baseline with
#   $(GO) run ./cmd/mtexc-lint -write-baseline lint.baseline.json ./...
lint-sarif:
	mkdir -p out
	$(GO) run ./cmd/mtexc-lint -sarif out/lint.sarif -baseline lint.baseline.json ./...

fmt:
	gofmt -l -w .

test: build vet
	$(GO) test ./... -count=1 -timeout 1800s

test-short: build
	$(GO) test ./... -count=1 -short -timeout 600s

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Headline throughput + allocation benchmarks, archived as a JSON
# snapshot (out/BENCH_<stamp>.json) for cross-commit comparison; see
# docs/performance.md.
bench-compare:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkFunctionalThroughput|BenchmarkFigure5Mechanisms|BenchmarkMachineClone|BenchmarkMachineConstruction' \
		-benchmem -benchtime=1x . | $(GO) run ./cmd/mtexc-benchsnap

# One JSON snapshot per exception architecture on the compress
# benchmark (see docs/observability.md for the schema), plus the
# experiment tables as JSON rows.
bench-json:
	mkdir -p out
	for mech in traditional multithreaded hardware; do \
		$(GO) run ./cmd/mtexcsim -bench compress -mech $$mech \
			-json out/compress-$$mech.json || exit 1; \
	done
	$(GO) run ./cmd/mtexc-experiments -fig5 -json > out/fig5.ndjson
	@echo "snapshots in out/"

experiments:
	$(GO) run ./cmd/mtexc-experiments -all -general -unaligned -tlbsweep -faults -ptorg

report:
	$(GO) run ./cmd/mtexc-report -insts 500000

# Short burst of every fuzz target (corrupt snapshots, hostile
# instruction words, assembler input, mechanism-vs-reference
# differential checks), then a short differential sweep that leaves a
# structured event log (out/fuzz-events.ndjson: per-program fuzz.check
# entries, fuzz.divergence with the shrunk repro) behind for failure
# forensics; see docs/robustness.md, docs/fuzzing.md, docs/telemetry.md.
fuzz:
	mkdir -p out
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/isa/asm -run '^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diffsim -run '^$$' -fuzz FuzzDifferential$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diffsim -run '^$$' -fuzz FuzzClusterDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cpu -run '^$$' -fuzz FuzzCloneEquivalence -fuzztime $(FUZZTIME)
	$(GO) run ./cmd/mtexc-fuzz -seed 1 -n 25 -events out/fuzz-events.ndjson

# Longer differential soak: a five-minute FuzzDifferential run plus a
# deterministic 200-seed sweep through the full configuration grid.
# Not part of the PR gate.
fuzz-long:
	mkdir -p out
	$(GO) test ./internal/diffsim -run '^$$' -fuzz FuzzDifferential$$ -fuzztime 5m
	$(GO) test ./internal/diffsim -run '^$$' -fuzz FuzzClusterDifferential -fuzztime 2m
	$(GO) run ./cmd/mtexc-fuzz -seed 1 -n 200 -v -events out/fuzz-events.ndjson

# Crash-safe resume, once per run mode (exact Figure 5, shared-L2
# clusters, sampled Figure 5): run with a journal, throw most of the
# journal away (simulating a kill), resume, and demand byte-identical
# output plus zero new simulations on a second, fully-journaled resume.
comma := ,
define resume-loop
	out/mtexc-experiments $(2) -journal out/resume-$(1).ndjson > out/resume-$(1)-full.txt
	head -3 out/resume-$(1).ndjson > out/resume-$(1)-cut.ndjson && mv out/resume-$(1)-cut.ndjson out/resume-$(1).ndjson
	out/mtexc-experiments $(2) -journal out/resume-$(1).ndjson -resume > out/resume-$(1)-resumed.txt
	cmp out/resume-$(1)-full.txt out/resume-$(1)-resumed.txt
	out/mtexc-experiments $(2) -journal out/resume-$(1).ndjson -resume -v > out/resume-$(1)-again.txt 2> out/resume-$(1)-again.err
	cmp out/resume-$(1)-full.txt out/resume-$(1)-again.txt
	grep -q "0 new entries" out/resume-$(1)-again.err
endef

resume-check:
	mkdir -p out
	$(GO) build -o out/mtexc-experiments ./cmd/mtexc-experiments
	$(call resume-loop,fig5,-fig5 -insts 100000)
	$(call resume-loop,sharedl2,-sharedl2 -insts 20000)
	$(call resume-loop,fig5sampled,-fig5sampled -bench mph$(comma)cmp -insts 200000 -sample 50000:10000:10000)
	@echo "resume-check: byte-identical"

# Transient-fault injection smoke: the default campaign grid
# (4 state classes x 4 mechanisms x 3 workloads, 5 trials/cell = 240
# flips) must produce both masked and detected outcomes, and a
# recorded SDC trial must replay bit-for-bit (two replays compare
# equal and verify the recorded outcome class). See the fault-
# injection section of docs/robustness.md.
faultinject-smoke:
	mkdir -p out
	$(GO) build -o out/mtexc-faultinject ./cmd/mtexc-faultinject
	out/mtexc-faultinject -trials 5 > out/faultinject.txt
	awk '$$3 ~ /^[0-9]+$$/ { m += $$4; d += $$5 } END { exit !(m > 0 && d > 0) }' out/faultinject.txt
	sed -n "s/.*-replay '\(.*\)'.*/\1/p" out/faultinject.txt | head -1 > out/faultinject-token.txt
	test -s out/faultinject-token.txt
	out/mtexc-faultinject -replay "$$(cat out/faultinject-token.txt)" > out/faultinject-replay1.txt
	out/mtexc-faultinject -replay "$$(cat out/faultinject-token.txt)" > out/faultinject-replay2.txt
	cmp out/faultinject-replay1.txt out/faultinject-replay2.txt
	grep -q "reproduced recorded outcome sdc" out/faultinject-replay1.txt
	@echo "faultinject-smoke: masked+detected present, SDC replay byte-identical"

# Statement-coverage gate: the -short suite over ./internal/... must
# not fall below the floor committed in cover.baseline.txt. The
# profile lands in out/cover.out (CI uploads it as an artifact);
# raise the floor deliberately when coverage grows, never lower it to
# make a PR pass.
cover:
	mkdir -p out
	$(GO) test ./internal/... -count=1 -short -timeout 900s -coverprofile=out/cover.out > /dev/null
	@total=$$($(GO) tool cover -func=out/cover.out | awk '/^total:/ { gsub(/%/,"",$$NF); print $$NF }'); \
	floor=$$(cat cover.baseline.txt); \
	echo "coverage: $$total% of statements (committed floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below the committed floor $$floor%"; exit 1; }

clean:
	$(GO) clean ./...
