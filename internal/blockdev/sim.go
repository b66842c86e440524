package blockdev

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"calliope/internal/units"
)

// Mechanism is one disk's calibrated mechanics: a seek curve (settle
// plus full-span time scaled by the square root of the distance
// fraction), rotational latency, and media transfer rate. Both disk
// models use it: Sim here, against wall-clock sleeps, and
// internal/simhw's discrete-event Disk. Each computes its own distance
// fraction and rotation draw.
type Mechanism struct {
	SeekSettle     time.Duration // head settle per repositioning
	SeekFullSpan   time.Duration // seek across the whole device, scaled by sqrt of fraction
	RotationPeriod time.Duration // one revolution; latency is uniform in [0, period)
	MediaRate      units.BitRate // platter transfer rate
}

// Barracuda is the paper's 2 GB Seagate Barracuda, calibrated so that
// simhw lands near Table 1.
func Barracuda() Mechanism {
	return Mechanism{
		SeekSettle:     1500 * time.Microsecond,
		SeekFullSpan:   8 * time.Millisecond,
		RotationPeriod: 8333 * time.Microsecond, // 7200 rpm
		MediaRate:      64 * units.Mbps,         // 8 MB/s platter rate
	}
}

// Seek is the arm's time across frac of the device (0 < frac ≤ 1).
func (m Mechanism) Seek(frac float64) time.Duration {
	return m.SeekSettle + time.Duration(float64(m.SeekFullSpan)*math.Sqrt(frac))
}

// SimConfig calibrates a Sim device: its mechanism, here applied to
// real wall-clock sleeps so the live MSU delivery path can be
// benchmarked against mechanical disk behavior.
type SimConfig struct {
	Mechanism
	// TimeScale divides every mechanical delay, so benches can replay
	// the seek-vs-transfer proportions without 1996 wall-clock times.
	// Zero means 1 (real time).
	TimeScale float64
	Seed      int64
}

// DefaultSimConfig is the Barracuda in real time.
func DefaultSimConfig() SimConfig {
	return SimConfig{Mechanism: Barracuda(), TimeScale: 1, Seed: 1}
}

// Sim wraps a backing device (usually Mem) with the mechanical timing
// of one disk. The mechanism is a single resource: transfers serialize
// on an internal mutex and each sleeps for its modelled seek + rotation
// + media time (divided by TimeScale) before the backing I/O runs.
// Concurrent callers therefore contend exactly the way unscheduled
// readers contend for a real spindle.
type Sim struct {
	dev BlockDevice
	cfg SimConfig

	mu        sync.Mutex
	head      int64
	rng       *rand.Rand
	ops       int64
	seekBytes int64
	busy      time.Duration // unscaled mechanical time
}

// NewSim wraps dev with the mechanical model.
func NewSim(dev BlockDevice, cfg SimConfig) *Sim {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &Sim{dev: dev, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// occupy holds the mechanism for one transfer of total bytes at off:
// it accounts the seek, sleeps the scaled mechanical time, and leaves
// the head at the transfer's end. Callers hold s.mu.
func (s *Sim) occupy(off, total int64) {
	dist := off - s.head
	if dist < 0 {
		dist = -dist
	}
	var cost time.Duration
	if dist > 0 {
		frac := float64(dist) / float64(s.dev.Size())
		cost += s.cfg.Seek(frac)
		if s.cfg.RotationPeriod > 0 {
			cost += time.Duration(s.rng.Int63n(int64(s.cfg.RotationPeriod)))
		}
	}
	cost += s.cfg.MediaRate.Duration(units.ByteSize(total))
	s.head = off + total
	s.ops++
	s.seekBytes += dist
	s.busy += cost
	time.Sleep(time.Duration(float64(cost) / s.cfg.TimeScale))
}

// ReadAt implements BlockDevice with mechanical timing.
func (s *Sim) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	s.occupy(off, int64(len(p)))
	s.mu.Unlock()
	return s.dev.ReadAt(p, off)
}

// ReadAtv implements VectorReader: one seek plus one contiguous media
// transfer covering every buffer — the payoff the scheduler's
// coalescing is after.
func (s *Sim) ReadAtv(off int64, bufs ...[]byte) error {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	s.mu.Lock()
	s.occupy(off, total)
	s.mu.Unlock()
	return ReadVector(s.dev, off, bufs...)
}

// WriteAt implements BlockDevice with mechanical timing.
func (s *Sim) WriteAt(p []byte, off int64) error {
	s.mu.Lock()
	s.occupy(off, int64(len(p)))
	s.mu.Unlock()
	return s.dev.WriteAt(p, off)
}

// Size implements BlockDevice.
func (s *Sim) Size() int64 { return s.dev.Size() }

// Close implements BlockDevice.
func (s *Sim) Close() error { return s.dev.Close() }

// Ops reports the number of transfers serviced.
func (s *Sim) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// SeekBytes reports the total head travel — the deterministic
// quantity the elevator tests assert shrinks under C-SCAN ordering.
func (s *Sim) SeekBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seekBytes
}

// BusyTime reports the total unscaled mechanical time the device
// spent seeking, rotating and transferring.
func (s *Sim) BusyTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}
