package fakemsu

import (
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/coordinator"
	"calliope/internal/core"
	"calliope/internal/units"
)

func startCoordinator(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Types: []core.ContentType{{
			Name:      "mpeg1",
			Class:     core.ConstantRate,
			Bandwidth: 1500 * units.Kbps,
			Storage:   1500 * units.Kbps,
			Protocol:  "cbr",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFakeMSURegistersAndTerminates(t *testing.T) {
	coord := startCoordinator(t)
	var bytes atomic.Int64
	f, err := Start(coord.Addr(), "fakeA", "mpeg1", 20*time.Millisecond, &bytes)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Content() != "fakeA-content" {
		t.Fatalf("Content = %q", f.Content())
	}
	if bytes.Load() == 0 {
		t.Error("no bytes counted during registration")
	}
}

func TestScalabilityRunSmall(t *testing.T) {
	coord := startCoordinator(t)
	cfg := Config{
		MSUs:        2,
		Clients:     2,
		Requests:    200,
		Rate:        400, // fast variant to keep the test short
		Delay:       20 * time.Millisecond,
		NetCapacity: 10 * units.Mbps,
	}
	res, err := Run(coord.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d requests failed", res.Errors, res.Requests)
	}
	if res.Requests != 200 {
		t.Fatalf("Requests = %d", res.Requests)
	}
	// The rate control should land near the target. Bounds are loose:
	// the whole test suite may be hammering this host in parallel, so
	// wall-clock behaviour degrades even though scheduling is cheap
	// (the precise numbers come from BenchmarkCoordinatorScale, run in
	// isolation).
	if res.AchievedRate < cfg.Rate*0.3 || res.AchievedRate > cfg.Rate*1.3 {
		t.Errorf("achieved %.1f req/s, target %.1f", res.AchievedRate, cfg.Rate)
	}
	if res.CPUUtil > 1.8 {
		t.Errorf("CPU utilization %.2f — scheduling should be cheap", res.CPUUtil)
	}
	if res.NetUtil > 0.6 {
		t.Errorf("network utilization %.2f — control traffic should be small", res.NetUtil)
	}
	t.Logf("rate=%.1f req/s cpu=%.1f%% net=%.1f%% bytes=%d",
		res.AchievedRate, res.CPUUtil*100, res.NetUtil*100, res.WireBytes)
}

func TestRunValidation(t *testing.T) {
	coord := startCoordinator(t)
	if _, err := Run(coord.Addr(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestExtrapolatedRequestRate(t *testing.T) {
	// §3.3's closing arithmetic: 3000 streams, 1-minute sessions →
	// 50 requests/second.
	if got := ExtrapolatedRequestRate(3000, time.Minute); got != 50 {
		t.Errorf("ExtrapolatedRequestRate = %v, want 50", got)
	}
	if got := ExtrapolatedRequestRate(3000, 0); got != 0 {
		t.Errorf("zero session length = %v", got)
	}
}
