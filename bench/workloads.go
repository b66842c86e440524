package main

import (
	"fmt"
	"math/rand"
	"time"
)

// arrival is one open-loop viewer: a play of one title, due at a fixed
// offset from the start of the measured window.
type arrival struct {
	due       time.Duration
	title     int // index into plan.titles
	noStartup bool
}

// plan is a workload made concrete for one seed and run length: the
// content to preload and the schedule of viewer activity. The cluster
// only ever sees what a plan generates.
type plan struct {
	name       string
	seed       int64
	seconds    time.Duration
	mechanical bool // a blockdev.Sim under the volume; otherwise memory

	titles   []title
	arrivals []arrival // open loop, ascending by due
	// churn lists the titles the closed-loop clients (nproc of them)
	// draw from; empty means no closed loop.
	churn []int
	// records are stamped streams the bench paces into record sinks
	// from the start of the window until recordFor.
	records   []title
	recordFor time.Duration

	// ontimeFor, when set, is the head of the window whose packets count
	// for ontime*; otherwise all of it does.
	ontimeFor time.Duration
}

// tailFor is the capacity window: viewer.capacity_mbps and
// blockdev.util_pct are taken over the last sixth of the run.
func (p *plan) tailFor() time.Duration { return p.seconds / 6 }

// workloadInfo names a workload and says why it exists.
type workloadInfo struct {
	name string
	why  string
	plan func(seed int64, seconds time.Duration) *plan
}

var workloads = []workloadInfo{
	{"cold_ramp", "nothing shared: 16 then 32 viewers of their own cold 1.5 Mbit/s titles, then 16 more at 6 Mbit/s to overload the disk; blockdev, iosched, msu/fetch, msufs and ibtree do the work, cache none", planColdRamp},
	{"hot_zipf", "48 viewers over 3 titles with Zipf(1) popularity and 1 KB packets: cache and the per-packet path (queue, pacing, UDP write, obs) do the work and the disk should idle", planHotZipf},
	{"control_churn", "2 closed-loop clients (play, first packet, seek, first packet, quit) beside 4 steady viewers on a memory disk: coordinator, schedule, wire, msu/group set-up and teardown, ibtree seek are the cost", planControlChurn},
	{"record_beside_play", "16 cold viewers while 8 recordings are written to the same mechanical disk outside iosched: the one workload where reads and writes contend for the spindle", planRecordBesidePlay},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

const (
	arrivalGap = 250 * time.Millisecond // 4 arrivals a second
	// arrivalJitter is the seeded wobble on each arrival, so two seeds
	// differ in phase against the disk's rounds but not in load.
	arrivalJitter = 50 * time.Millisecond
	// contentSlack is content past the end of the window, so no stream
	// reaches EOF while it is being measured.
	contentSlack = time.Second
)

// newTitle appends a title that covers a viewer arriving at due.
func (p *plan) newTitle(ctype string, pktSize int, length time.Duration) int {
	id := uint32(len(p.titles) + 1)
	rate := rateSD
	if ctype == typeHD {
		rate = rateHD
	}
	p.titles = append(p.titles, title{
		id: id, name: fmt.Sprintf("title-%03d", id), ctype: ctype,
		rate: rate, pktSize: pktSize, length: length,
	})
	return len(p.titles) - 1
}

// ramp schedules n arrivals of fresh titles from start at 4/s, fewer if
// the step is too short to hold them (the smoke test's 2 s runs).
func (p *plan) ramp(rng *rand.Rand, start, step time.Duration, n int, ctype string, pktSize int, noStartup bool) {
	if fit := int(step / arrivalGap); fit < n {
		n = fit
	}
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*arrivalGap + time.Duration(rng.Int63n(int64(arrivalJitter)))
		t := p.newTitle(ctype, pktSize, p.seconds-due+contentSlack)
		p.arrivals = append(p.arrivals, arrival{due: due, title: t, noStartup: noStartup})
	}
}

// planColdRamp: open loop, nothing shared. Two rated steps of 16
// viewers each, then an overload step whose 6 Mbit/s titles drain the
// 1 MB per-stream prefetch ring within seconds, so the disk limit shows.
func planColdRamp(seed int64, seconds time.Duration) *plan {
	p := &plan{name: "cold_ramp", seed: seed, seconds: seconds, mechanical: true}
	rng := rand.New(rand.NewSource(seed))
	step := seconds / 3
	p.ramp(rng, 0, step, 16, typeSD, 4096, false)
	p.ramp(rng, step, step, 16, typeSD, 4096, false)
	p.ramp(rng, 2*step, step, 16, typeHD, 4096, true)
	p.ontimeFor = 2 * step
	return p
}

// planHotZipf: the same disk and arrival rate, 48 viewers over three
// titles. Popularity is Zipf(1) by quota (26, 13 and 9 viewers) and the
// order is the evenest interleaving of those quotas, the same for every
// seed: drawing either from the seed would swing the hit ratio, and with
// it every number here, by more than any change under test. The seed
// moves only the arrivals' phase and the disk's rotational luck.
func planHotZipf(seed int64, seconds time.Duration) *plan {
	p := &plan{name: "hot_zipf", seed: seed, seconds: seconds, mechanical: true}
	rng := rand.New(rand.NewSource(seed))
	viewers := 48
	if fit := int(seconds / 2 / arrivalGap); fit < viewers {
		viewers = fit
	}
	quotas := []int{26, 13, 9}
	titles := make([]int, len(quotas))
	for i := range titles {
		titles[i] = p.newTitle(typeSD, 1024, seconds+contentSlack)
	}
	given := make([]int, len(quotas))
	for i := 0; i < viewers; i++ {
		// Whichever title is furthest behind its share comes next.
		pick, behind := 0, -1.0
		for k, q := range quotas {
			if d := float64(q)*float64(i+1)/48 - float64(given[k]); d > behind {
				pick, behind = k, d
			}
		}
		given[pick]++
		due := time.Duration(i)*arrivalGap + time.Duration(rng.Int63n(int64(arrivalJitter)))
		p.arrivals = append(p.arrivals, arrival{due: due, title: titles[pick]})
	}
	return p
}

// churnTitleLength is how long a title the closed-loop clients play
// and seek within is.
const churnTitleLength = 10 * time.Second

// planControlChurn: closed loop on a memory disk. Four steady viewers
// play beside the two churning clients, so the run also says whether
// control-plane churn disturbs streams that are already running. The
// Coordinator keeps its administrative database in memory: journaled to
// a state directory, every Play waits for an fsync of the host's disk,
// and on a shared box that one call (admindb.apply_us: 0.24 ms in a
// quiet hour, 2.3 ms in a busy one) decided every number of this
// workload. The probe still prices it.
func planControlChurn(seed int64, seconds time.Duration) *plan {
	p := &plan{name: "control_churn", seed: seed, seconds: seconds}
	for i := 0; i < 8; i++ {
		p.churn = append(p.churn, p.newTitle(typeSD, 4096, churnTitleLength))
	}
	for i := 0; i < 4; i++ {
		t := p.newTitle(typeSD, 4096, seconds+contentSlack)
		p.arrivals = append(p.arrivals, arrival{due: time.Duration(i) * 10 * time.Millisecond, title: t, noStartup: true})
	}
	return p
}

// planRecordBesidePlay: sixteen cold viewers as in cold_ramp (eight gave
// a start-up median that swung by a sixth from seed to seed) while eight
// stamped recordings are paced into record sinks on the same disk until
// five sixths of the window have passed; the rest of it watches them
// commit. The recordings start 250 ms apart, like the viewers: started
// together they would fill their pages together, and the disk would see
// eight writes in a burst every 1.4 s instead of a steady one in six.
func planRecordBesidePlay(seed int64, seconds time.Duration) *plan {
	p := &plan{name: "record_beside_play", seed: seed, seconds: seconds, mechanical: true}
	rng := rand.New(rand.NewSource(seed))
	p.ramp(rng, 0, seconds, 16, typeSD, 4096, false)
	p.recordFor = seconds * 5 / 6
	for i := 0; i < 8; i++ {
		id := uint32(1000 + i)
		p.records = append(p.records, title{
			id: id, name: fmt.Sprintf("recording-%02d", i), ctype: typeSD,
			rate: rateSD, pktSize: 4096, length: p.recordFor,
		})
	}
	return p
}
