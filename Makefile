GO ?= go

.PHONY: check build test race vet lint nommap bench benchcheck faults walfaults defrace deleterace arenarace fuzz table1 clean

# The gate: everything must vet, keep the typed-error rule (lint),
# build, pass under the race detector (concurrent callers of one
# executor, relation and tree, writers beside readers, and PACKs side
# by side are exercised by dedicated -race stress tests), and
# survive the fault-injection and crash-point suites, including the WAL
# crash-recovery matrix, and pass again without the file mapping. Every
# test binary that opens a pager also fails when its tests leave a pin,
# a reader or a goroutine behind (internal/leakcheck, DESIGN.md §14).
check: vet lint build race nommap faults walfaults defrace deleterace arenarace

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# go vet plus the typed-error rule (DESIGN.md §14): a standard-library
# go/types test that sentinels are wrapped with %w and matched with
# errors.Is. It also runs inside `go test ./...`.
lint: vet
	$(GO) test -run 'TestCorruptWrap' -count=1 .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The packages that read pages, built without the file mapping: the pool
# serves every read, as it does wherever EnableMmap fails (another
# platform, a non-file backend, an address space that cannot hold the
# reservation). Without a mapping every read holds a pool pin, so this
# is where TestMain's pool-pin check sees the readers.
nommap:
	$(GO) test -tags pictdb_nommap ./internal/pager/ ./internal/rtree/ ./internal/storage/ ./internal/relation/ ./internal/psql/ .

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Short benchmark smoke pass (no -race: the detector's overhead makes
# timings meaningless). Catches perf-path regressions that fail to
# run — wrong flags, broken benchmarks, alloc-assertion drift — not
# timing changes; CI runs it as a non-blocking job. The pager's parallel
# pins run a second time without the file mapping, through the buffer
# pool's one lock, and its warm pin too, each one a pool miss whose B/op
# shows whether the evicted frame is reused. DecodeRecord times one
# record read (the validating walk, the terms, the decode) on
# window_read's record, kept, rejected and with no term. The one StoreIngest
# cell keeps a writer beside a reader running; SplitKinds and UpdateDrift
# show an allocation added to the dynamic Insert and Delete.
benchcheck:
	$(GO) test -run xxx -bench 'Juxtapos' -benchtime 10x -benchmem .
	$(GO) test -run xxx -bench 'PSQL' -benchtime 10x -benchmem .
	$(GO) test -run xxx -bench 'Pin|Fetch|ReadBatch' -benchtime 100x -benchmem ./internal/pager/
	$(GO) test -tags pictdb_nommap -run xxx -bench 'Parallel' -benchtime 100x -benchmem ./internal/pager/
	$(GO) test -tags pictdb_nommap -run xxx -bench 'PinWarm$$' -benchtime 100x -benchmem ./internal/pager/
	$(GO) test -run xxx -bench 'GetBatch' -benchtime 100x -benchmem ./internal/storage/
	$(GO) test -run xxx -bench 'DecodeRecord' -benchtime 10000x -benchmem ./internal/relation/
	$(GO) test -run xxx -bench 'DeltaMergedSearch|PackedOnlySearch' -benchtime 20x -benchmem ./internal/relation/
	$(GO) test -run xxx -bench 'Repack$$' -benchtime 3x -benchmem ./internal/relation/
	$(GO) test -run xxx -bench 'OpenWindowRead' -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench 'PackTree' -benchtime 3x -benchmem ./internal/pack/
	$(GO) test -run xxx -bench 'WindowStatement' -benchtime 200x -benchmem .
	$(GO) test -run xxx -bench 'SplitKinds' -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench 'UpdateDrift' -benchtime 2000x -benchmem .
	$(GO) test -run xxx -bench 'StoreIngest/mem/uniform$$' -benchtime 1x .
	$(GO) run ./cmd/pictbench -quick > /dev/null

# Durability suite: injected I/O faults, torn writes, crash points
# captured over a page file and its log (a background repack's
# included), checksum and corruption detection, across the pager, the
# relations' own Check (an index entry naming no tuple, a located tuple
# its index lost, a heap page chained into two of a heap's chains) and
# the full database stack, the reopen of a heap of several chains (a
# relation of testdata/stores_pr52, written as four stores, among
# them), and the typed refusal of old
# formats (v1 pages, a PICTCAT1 catalog, a relation whose stores were
# page files of their own, one whose records carried sequence ids — the
# testdata/ file sets included — left byte-identical).
faults:
	$(GO) test -race -run 'Fault|Crash|Torn|Checksum|Corrupt|Truncated|Degrad|UnsupportedFormat|Check|DuplicatePage|ShardedReopen|StoresFixture' ./internal/pager/ ./internal/relation/ ./cmd/pictdbcheck/ .

# Write-ahead-log durability matrix: group-commit batching, live reads
# beside concurrent group-committing writers, append-region fault
# injection at the log tail, a failing final commit at Close, a failed
# fsync stopping the database, and the coordinated (page file, WAL)
# crash-point sweep with recovery verified from every captured image —
# a relation of four stores beside a one-store one, pictorial rows and
# definitions made after the last Checkpoint included, and a delete a
# crash undid.
walfaults:
	$(GO) test -race -run 'WAL|Append' ./internal/pager/ ./cmd/pictdbcheck/ .

# Definitions beside writers, under -race and repeated: a relation
# defined beside a committing Write, and one defined and loaded inside
# a Write's fn beside a goroutine committing in a loop. A definition
# touches no page and takes no writer lock, so neither races nor
# deadlocks (the timeout turns a deadlock into a failure); one run in
# twenty caught the race a definition's page allocation once had with
# the commit's capture, fifty in a row do.
defrace:
	$(GO) test -race -timeout 120s -run 'TestWriteBesideShardedDefinitions|TestDefineInsideWrite' -count=50 .

# Two Deletes of one id, raced under -race and repeated, at one store
# and at four: the heap's dead-slot check, under the store lock in the
# section that reads the record, is all that lets exactly one of them
# win, so no tuple is counted out or unindexed twice. Beside them,
# deletes raced against window, B-tree and juxtaposition statements: a
# tuple deleted between a statement's probe and its fetch is skipped,
# and no statement fails.
deleterace:
	$(GO) test -race -timeout 300s -run 'TestConcurrentDoubleDelete|TestFetchBesideDelete' -count=20 ./internal/relation/ ./internal/psql/

# Results beside reused statement arenas, under -race and repeated: a
# planned statement decodes into a pooled arena that the next statement
# clears and cuts again, so a held window, juxtaposition and nested
# mapping must read the same after hundreds of statements from two
# goroutines, and each of those must answer as the naive executor does.
arenarace:
	$(GO) test -race -timeout 300s -run 'TestResultOutlivesArena' -count=20 .

# Short fuzz pass over the decoders of on-disk bytes — tuple records
# with the objects their locs carry, page-0 header slots, catalog
# records, write-ahead log records (inspection against recovery),
# slotted heap pages, picture objects — a where-term's B-tree lookup
# against the scan and a decode-then-test reference, the B-tree bulk
# load against per-item insertion, the B-tree run sort against a comparator sort, the
# R-tree's batched search against per-window searches, and
# PSQL statements the planned executor must answer as the naive one does,
# over packed, delta and tombstoned index entries. (-fuzz takes one target per run. Left at its
# default, minimizing one new input of a log's page-long seeds, or of a
# long object label, can take up to a minute: the whole run.)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeTuple -fuzztime 10s -fuzzminimizetime 20x ./internal/relation/
	$(GO) test -run '^$$' -fuzz FuzzLookupMatchesScan -fuzztime 10s -fuzzminimizetime 20x ./internal/relation/
	$(GO) test -run '^$$' -fuzz FuzzScanPage -fuzztime 10s -fuzzminimizetime 20x ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeObject -fuzztime 10s -fuzzminimizetime 20x ./internal/picture/
	$(GO) test -run '^$$' -fuzz FuzzParseHeaderSlots -fuzztime 10s ./internal/pager/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCatalogRecord -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzBulkLoad -fuzztime 10s ./internal/btree/
	$(GO) test -run '^$$' -fuzz FuzzSortEntries -fuzztime 10s ./internal/btree/
	$(GO) test -run '^$$' -fuzz FuzzSearchBatch -fuzztime 10s -fuzzminimizetime 20x ./internal/rtree/
	$(GO) test -run '^$$' -fuzz FuzzRecoverWAL -fuzztime 10s -fuzzminimizetime 20x ./internal/pager/
	$(GO) test -run '^$$' -fuzz FuzzQueryMatchesNaive -fuzztime 10s .

# Paper reproduction targets.
table1:
	$(GO) run ./cmd/rtreebench

clean:
	$(GO) clean ./...
