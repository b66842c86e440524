# Calliope — build/test/reproduce targets. Everything is stdlib Go.

GO ?= go

.PHONY: all build vet lint test race faults fuzz-smoke leakcheck replicate obs bench bench-path bench-write bench-control bench-cache bench-iosched bench-e2e bench-e2e-smoke repro examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every static rule: go vet (its copylocks check keeps the atomic
# counters from being copied), gofmt, then Calliope's own analyzers:
# spscrole, walltime, errdropped, pageref, lockorder, goroleak, testonly
# (see DESIGN.md, "Static analysis & invariants"). A file gofmt would
# change fails the target, named.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/calliope-vet ./...

# 180 s a package (the root suite takes ~55 s): a shutdown stall — a
# request left parked until its 30 s queue timeout — fails the build
# instead of quietly adding half a minute.
test:
	$(GO) test -timeout 180s ./...

race:
	$(GO) test -race ./...

# The concurrent packages' test suites with verbose goroutine-leak
# reporting: every TestMain runs internal/leakcheck, and the tag makes
# clean packages print their final goroutine count too.
leakcheck:
	$(GO) test -tags leakcheck . ./internal/coordinator ./internal/msu ./internal/client ./internal/cache ./internal/queue ./internal/faultinject ./internal/wire ./internal/iosched ./internal/replicate ./internal/obs ./internal/leakcheck

# Failure-recovery tests under deterministic fault injection
# (internal/faultinject; see DESIGN.md, "Failure handling"), including
# the Coordinator crash–restart scenarios backed by internal/admindb,
# the restart-equivalence walk (a restart replays to the live tables),
# the failed-commit and idempotent-replay tests, the admission core's
# plan/rollback and ledger-conservation tests, the Coordinator's and the
# MSU's socket-free core tests and seeded walks (TestCore*), the Close-wakes-the-queue
# tests, the MSU's quit-acknowledgement and stop-drains-the-sink
# regressions, and the content lifecycle's crash half: a recording whose
# publish fails is aborted (TestFaultRecorderPublishFailureAborts), a
# start-up sweeps what crashes leave (TestSweepOnStartup), and a
# corrupt superblock is refused (TestMountRejectsCorruptSuperblock). The
# MSU's command path rides along: VCR commands pipelined down one
# connection, a stream's goroutines across a hundred of them, each ack's
# position while a title plays through seeks, pauses and scans, a group's
# command moving all of its members or none, a quit during the control
# dial, a control dial that fails, and the report clock: its cadence,
# reports while a stream plays, and the last report when two groups quit
# at once. A start the MSU refuses sends no stream-ended, in the core
# (TestCoreRefusedStartSendsNoStreamEnded) and end to end
# (TestControlDialFailureEndsGroup, TestQuitDuringControlDial).
# Regressions ride the same patterns: a delete in flight fences its title
# (TestCoreDeleteFencesItsTitle) and gains and sheds no replica
# (TestCoreDeleteFencesReplicas); a delete during a cold-replica drop is
# refused as in use (TestCoreDeleteDuringColdDrop); a play never starts
# on a replica being shed (TestCorePlaySkipsReplicaBeingShed); a drop
# that takes a title's last replica removes the title
# (TestCoreDropAfterReregisterTakesLastReplica); a delete reaches an MSU
# that re-registered while it ran (TestCoreDeleteReachesReregisteredMSU);
# a composite title holds no location of its own
# (TestCompositeHoldsNoLocations), is refused deletion while it plays
# (TestCoreDeleteCompositeInUse), deletes whole once it is not
# (TestSeminarCompositeGroup) and leaves the catalog with any of its
# children, live and in journal replay (TestCoreDeleteChildUnlistsComposite,
# TestCoreReregisterWithoutChildUnlistsComposite,
# TestDeleteCascadesToComposites); a restarted Coordinator's IDs come
# from one lease a start, above every earlier one, and a hello, port or
# play writes no journal (TestRestartLeasesIDs), nor does an unchanged
# MSU re-registration (TestRestartUnchangedHelloWritesNothing); a copy
# on a down MSU counts for nothing: a title whose other holder is down
# earns a copy (TestCoreDownHolderEarnsACopy, and end to end with both
# holders crashed in turn, TestFaultCopyReplacesDownHolder) and its last
# live copy is never shed (TestCoreColdDropSparesLastLiveCopy); an
# orphaned group is placed, copied for and started as a fresh play is:
# it earns a copy when its live holder is full (TestCoreOrphanEarnsACopy,
# and end to end TestFaultOrphanMigratesOntoCopy), a re-dispatch's start
# outcome is its verdict, one StartStream carries the whole group, a
# refused one sends one StopStream, one with a member ended is lost, not
# started again, and a stream-ended from another MSU than the stream's
# is ignored (TestCoreEndedBeforeStartOutcome),
# and an orphan whose client is gone is lost
# (TestCoreOrphanOfGoneClientIsLost); a
# group's copies land together (TestCoreCompositeCopiesLandTogether);
# and a stored record that does not decode ends the cue without being
# sent (TestCorruptRecordEndsTheCue).
faults:
	$(GO) test -race -timeout 120s -run 'Fault|Failover|Redispatch|Reconnect|MSUDown|Lost|Restart|FailedCommit|ReplayIdempotent|CompositeHoldsNoLocations|DeleteCascades|PR15Fixture|Orphan|Corrupt|PlanStep|LedgerConservation|Core|SeminarCompositeGroup|RecordPlacement|QueuedPlayWakes|CloseWakes|CutAll|QuitIsAcknowledged|StopKeeps|SweepOnStartup|PipelinedVCR|GoroutinesPerStream|VCRAckPositions|GroupVCRMovesAllOrNone|QuitDuringControlDial|ControlDialFailure|ReportCadence|ReportsWhilePlaying|LastReportCountsConcurrentQuits' . ./internal/coordinator ./internal/client ./internal/msu ./internal/msufs ./internal/faultinject ./internal/admindb

# Three seconds of each of the nine fuzz targets (go test takes one -fuzz target and
# one package per run): journal replay and snapshot decoding never
# panic on arbitrary bytes and keep only what replays to the same
# tables; a control-message frame is refused, or read as json.Unmarshal
# reads it and survives re-encoding; the hand-written framing of any
# envelope is byte-for-byte json.Marshal(Envelope) behind its length and
# reads back as json.Unmarshal reads it; a disk's metadata region is refused or mounts with every block owned once;
# a data page is refused or cut into spans that lie inside it, the same
# through LoadPage, AttachPage and — head first, at any valid mark —
# AttachHead and Raise; an index node is refused or decodes to what it
# serializes back to; a replication stream is refused or hands its sinks
# only blocks that passed their CRC, in order; a stored record is refused
# or split into a known channel and the payload it aliases, and framing
# one round-trips.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzReplayJournal$$' -fuzztime=3s ./internal/admindb
	$(GO) test -run=NONE -fuzz='^FuzzSnapshotDecode$$' -fuzztime=3s ./internal/admindb
	$(GO) test -run=NONE -fuzz='^FuzzReadMessage$$' -fuzztime=3s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzFrameEnvelope$$' -fuzztime=3s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzMount$$' -fuzztime=3s ./internal/msufs
	$(GO) test -run=NONE -fuzz='^FuzzAttachPage$$' -fuzztime=3s ./internal/ibtree
	$(GO) test -run=NONE -fuzz='^FuzzReadNode$$' -fuzztime=3s ./internal/ibtree
	$(GO) test -run=NONE -fuzz='^FuzzReceive$$' -fuzztime=3s ./internal/replicate
	$(GO) test -run=NONE -fuzz='^FuzzDecodeStored$$' -fuzztime=3s ./internal/protocol

# The demand-driven replication subsystem: copy-engine framing, the
# MSU transfer path, the Coordinator placement policy, and the
# end-to-end replication/delete-race/crash scenarios, under -race.
replicate:
	$(GO) test -race -timeout 180s ./internal/replicate
	$(GO) test -race -timeout 180s -run 'Replicat' . ./internal/coordinator ./internal/msu

# The cluster observability subsystem: the metrics registry and event
# ring, the Coordinator's StatusV2/events RPCs and scrape endpoint, the
# `calliope-client status` golden text, and the root
# play→crash→migrate→EOF timeline test, under -race.
obs:
	$(GO) test -race -timeout 120s ./internal/obs
	$(GO) test -race -timeout 120s -run 'Obs|StatusV2|Events|ProtoVersion' . ./internal/coordinator ./internal/wire
	$(GO) test -run=NONE -bench='PlayerDeliveryPath$$' -benchmem ./internal/msu

# Compile and run every benchmark in the module exactly once so they
# cannot rot (CI runs this on every push).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# The §2.3 delivery-path microbenches: allocs/op and packets/sec from
# scheduler read to UDP write on an MSU built by New, plus the
# page-granular ibtree cursor and what positioning it costs from the
# start, through the resident index and cold (DESIGN.md §3d), and what
# the disk scheduler's re-pick between two transfers costs at queue
# depths 1, 32 and 256, and a pick that joins a ring of four with its
# scatter list (`adjacent`) (§3g; 0 allocs/op each).
bench-path:
	$(GO) test -run=NONE -bench='PlayerDeliveryPath|PageCursorNext|SeekTime|PageCursorAt|SchedulerPick' -benchmem ./internal/msu ./internal/ibtree ./internal/iosched

# The content write path (DESIGN.md, "Content lifecycle"): Ingest of a
# 4,800-packet title into a memory volume of 256 KB blocks, a received
# packet into a recording, and the IB-tree builder's append. Each payload
# byte is copied once, into the builder's one page. Expected on a 2-core
# x86 box: Ingest/4K ~1.9 ms/op (~10 GB/s), 271 KB and 64 allocs a title;
# Ingest/1K ~0.6 ms/op, 267 KB and 57 allocs; RecordAppend ~100–120 ns and
# 0 allocs a packet; BuilderAppend4K ~2 µs, 4.2 KB/op (its test file's
# copy of each page). With a fresh buffer a packet and a fresh page a
# block they were ~6.5 ms, 43.8 MB and 4,950 allocs; ~1.8 ms and 11.0 MB;
# ~300–500 ns and 1 alloc; 8.3 KB/op.
bench-write:
	$(GO) test -run=NONE -bench='Ingest' -benchtime=50x -benchmem ./internal/msu
	$(GO) test -run=NONE -bench='RecordAppend' -benchmem ./internal/msu
	$(GO) test -run=NONE -bench='BuilderAppend4K' -benchmem ./internal/ibtree

# The control plane end to end (DESIGN.md, "Admission path"): one client's
# play → first packet → seek → first packet → quit against a real
# Coordinator and MSU on a warm memory disk, ns and allocs per cycle.
# Expected on a 2-core x86 box at 1,000 cycles: 32.6–33.5 KB and 455–466
# allocs a cycle, 0.18–0.21 ms (/mem and /durable alike; four runs, ns/op
# noisy on a shared box), against 67.6–68.6 KB, 457–468 allocs and
# 0.21–0.22 ms when each start made its stream's 24.5 KB descriptor
# ring, its VCR connection's two 4 KB read buffers and a goroutine per
# request (TestPlayCycleBytes holds the bytes under 38 KB). A stream is one disk process with one descriptor ring, one set of
# fetch slots and one reservation in the disk's pool from its play to its
# quit, and the seek is a message to it. Both starts leave from RAM (the
# play from the title's head, the seek from a cached page), so none reads
# head first. With two goroutines, a reservation and a cache registration
# for every command's player it was ~83 KB and ~572 allocs; with a fresh
# ring, fetch slots and page pool for every player ~113 KB and ~598
# allocs; with the group dialling the client before its members began, a
# cache report at every VCR command and an event ring that shifted on
# every append, ~0.51–0.62 ms and ~771 allocs; with every control
# envelope marshalled and unmarshalled whole, ~82 KB and ~557 allocs.
# BenchmarkCall is one of that cycle's RPCs alone, a loopback Call with
# both peers counted: 10.8–11.7 µs, ~1.3 KB and 26 allocs
# (TestCallAllocations holds the count), against 16.9–17.9 µs and 27
# allocs with a goroutine per request, and ~1.9 KB and 43 allocs with
# the envelopes whole.
# BenchmarkHello is an unchanged MSU re-registration declaring 10,000
# titles, fed to the Coordinator's core: ~5.5–6.2 ms and 100 allocs in
# memory and on a state directory alike, against ~10.6–11.8 ms and
# ~68–74 ms when every hello journaled every location (and compacted).
# BenchmarkRelease is one release while 10, 100 or 4,000 plays wait on
# one title on a full disk: a stream-ended that admits one of them, or
# a cache report that admits none. Every waiting play is tried again, so
# it grows with the queue: ~0.03, ~0.3 and ~12–15 ms, 8 KB, 80 KB and
# 3.2 MB, 19 allocs a waiting play (ROADMAP item 24(b) is its fix).
bench-control:
	$(GO) test -run=NONE -bench='PlayCycle' -benchtime=1000x -benchmem .
	$(GO) test -run=NONE -bench=Call -benchmem ./internal/wire
	$(GO) test -run=NONE -bench='Hello|Release' -benchtime=20x -benchmem ./internal/coordinator

# The §3e RAM interval cache: hot-replay disk-read savings and the
# allocation-free cache-hit delivery path, plus the cache's own
# eviction/concurrency benches.
bench-cache:
	$(GO) test -run='HotReplay' -bench='HotReplay|Cache' -benchmem ./internal/msu ./internal/cache

# The §2.2.1/§2.3.3 live-path I/O scheduler on a mechanically-modelled
# Sim volume, 24 readers: `sched` flat out on the sped-up disk (C-SCAN,
# one band), `backlog` paced on a disk that cannot keep up (rings queue
# and ride as runs), both with the cache off, and `backlog-cached` over
# the default cache, whose pages are lent to readers past their
# reservations. Two sessions each, ~12 s; CI's `make bench` runs one. On a
# 2-core x86 box, xfers/op and seekMB/op: sched 192 and ~372, backlog 122
# and ~98, backlog-cached 108 and ~106; with the start-up ramp on every
# disk, contended or not, and nothing to lend, sched was 240 and ~488 and
# backlog 147 and ~129.
# FirstPacket is the other end of the same disk: Play → first datagram
# for a cold viewer, ms/op, on the disk idle, beside page writes made
# outside the scheduler, and from mid-title (`seek`, a packet inside its
# page's head), each read head first: 11.1–11.6, 23–30 (noisy) and
# 10.8–10.9 with the head a transfer of its own, against 11.1–11.2,
# 28–30 and 10.8–11.2 with the rest as the second device call of the
# head's transfer, and ~40, ~59 and ~40 with the page arriving whole.
# `resident` starts from the title's head in RAM (~0.3). LoadHeads is
# what that moved to start-up: New over 16 and 64 titles, ms/title (~11).
bench-iosched:
	$(GO) test -run=NONE -bench='IOSched' -benchtime=2x -benchmem ./internal/msu
	$(GO) test -run=NONE -bench='FirstPacket' -benchtime=20x ./internal/msu
	$(GO) test -run=NONE -bench='LoadHeads' -benchtime=5x ./internal/msu

# The viewer-side benchmark BENCHMARK.json declares (bench/README.md):
# every workload against a real Coordinator, MSU and receivers, rows to
# .bench_build/rows.json. The smoke target is its unit tests plus a 2 s
# run of each workload.
bench-e2e:
	$(GO) run ./bench suite -o .bench_build/rows.json

bench-e2e-smoke:
	$(GO) test ./bench

# Regenerate every table and figure in the paper's evaluation, each
# beside the paper's value (bench_test.go; EXPERIMENTS.md records the
# output). -v because Go prints a parent benchmark's log, where Graphs
# 1 and 2 are drawn, only under it, and trims other benchmark logs to
# ten lines without it.
repro:
	$(GO) test -v -run=NONE -bench='Table1|Graph|HBAStall|MemoryPath|CoordinatorScale|DiskScheduling|JitterBound|TimestampVsArrival|IBTreeOverhead|Strip' -benchtime=1x .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videomail
	$(GO) run ./examples/seminar
	$(GO) run ./examples/hotcontent
	$(GO) run ./examples/videoondemand

clean:
	$(GO) clean ./...
