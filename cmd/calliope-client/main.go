// Command calliope-client is an interactive Calliope client (§2.1):
// browse the table of contents, play content with VCR control, or
// record a synthetic stream.
//
// Usage:
//
//	calliope-client -coordinator 127.0.0.1:4160 list
//	calliope-client -coordinator 127.0.0.1:4160 types
//	calliope-client -coordinator 127.0.0.1:4160 status
//	calliope-client -coordinator 127.0.0.1:4160 watch [interval]
//	calliope-client -coordinator 127.0.0.1:4160 events [--follow] [--stream N]
//	calliope-client -coordinator 127.0.0.1:4160 play <content>
//	calliope-client -coordinator 127.0.0.1:4160 record <name> <type> <duration>
//	calliope-client -coordinator 127.0.0.1:4160 delete <content>
//
// status prints the Coordinator's status report (StatusV2.Text). watch
// polls the same report every interval (default 2s) and prints one line
// per tick with the cluster gauges plus delivery and cache rates derived
// from successive snapshots. events prints the
// Coordinator's structured event timeline (admissions, dispatches,
// migrations, replication, EOFs); --follow long-polls for new events
// and --stream filters to one stream's life.
//
// During play, VCR commands are read from stdin:
// pause, play, seek <duration>, ff, fb, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"calliope"
	"calliope/internal/media"
	"calliope/internal/units"
)

func main() {
	coord := flag.String("coordinator", "127.0.0.1:4160", "Coordinator address")
	user := flag.String("user", os.Getenv("USER"), "user name for the session")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	c, err := calliope.Dial(*coord, *user)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch args[0] {
	case "list":
		items, err := c.ListContent()
		if err != nil {
			fail(err)
		}
		if len(items) == 0 {
			fmt.Println("(no content)")
			return
		}
		fmt.Printf("%-24s %-12s %-12s %-10s %-6s %s\n", "NAME", "TYPE", "LENGTH", "SIZE", "FAST", "REPLICAS")
		for _, it := range items {
			locs := make([]string, len(it.Replicas))
			for i, d := range it.Replicas {
				locs[i] = d.String()
			}
			fmt.Printf("%-24s %-12s %-12s %-10s %-6v %d: %s\n",
				it.Name, it.Type, it.Length.Round(time.Millisecond), it.Size, it.HasFast,
				len(it.Replicas), strings.Join(locs, " "))
		}
	case "types":
		types, err := c.ListTypes()
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-12s %-9s %-14s %-14s %-9s %s\n", "NAME", "CLASS", "BANDWIDTH", "STORAGE", "PROTOCOL", "COMPONENTS")
		for _, t := range types {
			fmt.Printf("%-12s %-9s %-14s %-14s %-9s %s\n",
				t.Name, t.Class, t.Bandwidth, t.Storage, t.Protocol, strings.Join(t.Components, "+"))
		}
	case "status":
		st, err := c.StatusV2()
		if err != nil {
			fail(err)
		}
		fmt.Print(st.Text())
	case "watch":
		interval := 2 * time.Second
		if len(args) >= 2 {
			d, err := time.ParseDuration(args[1])
			if err != nil {
				fail(err)
			}
			interval = d
		}
		watch(c, interval)
	case "events":
		events(c, args[1:])
	case "play":
		if len(args) < 2 {
			usage()
		}
		play(c, args[1])
	case "record":
		if len(args) < 4 {
			usage()
		}
		dur, err := time.ParseDuration(args[3])
		if err != nil {
			fail(err)
		}
		record(c, args[1], args[2], dur)
	case "delete":
		if len(args) < 2 {
			usage()
		}
		if err := c.DeleteContent(args[1]); err != nil {
			fail(err)
		}
		fmt.Printf("deleted %q\n", args[1])
	default:
		usage()
	}
}

// watch polls StatusV2 every interval and prints one line per tick:
// the cluster gauges, plus delivery/cache rates and the mean start-up
// of the players started in the tick, computed from the difference
// between successive snapshots.
func watch(c *calliope.Client, interval time.Duration) {
	var prev calliope.StatusV2
	have := false
	for {
		st, err := c.StatusV2()
		if err != nil {
			fail(err)
		}
		s := st.Snapshot
		line := fmt.Sprintf("%s  msus %d/%d  streams %-3d queued %-3d sessions %-3d",
			time.Now().Format("15:04:05"),
			s.Gauge("msus_available"), s.Gauge("msus"),
			s.Gauge("active_streams"), s.Gauge("queued_plays"), s.Gauge("sessions"))
		if have {
			d := s.Sub(prev.Snapshot)
			secs := interval.Seconds()
			bps := units.BitRate(float64(d.Counter("delivery_bytes_total")) * 8 / secs)
			line += fmt.Sprintf("  %6.0f pkt/s  %-12v", float64(d.Counter("delivery_packets_total"))/secs, bps)
			if looks := d.Counter("cache_page_hits_total") + d.Counter("disk_pages_read_total"); looks > 0 {
				line += fmt.Sprintf("  cache %d%%", d.Counter("cache_page_hits_total")*100/looks)
			}
			if h := d.Hists["delivery_startup_seconds"]; h.Count > 0 {
				line += fmt.Sprintf("  start %.1f ms", h.Sum/float64(h.Count)*1000)
			}
		}
		fmt.Println(line)
		prev, have = st, true
		time.Sleep(interval)
	}
}

// events prints the Coordinator's event timeline; with --follow it
// long-polls for new events until interrupted.
func events(c *calliope.Client, args []string) {
	follow := false
	var stream uint64
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--follow", "-f":
			follow = true
		case "--stream":
			i++
			if i >= len(args) {
				usage()
			}
			if _, err := fmt.Sscanf(args[i], "%d", &stream); err != nil {
				fail(fmt.Errorf("bad --stream %q: %w", args[i], err))
			}
		default:
			usage()
		}
	}
	var since uint64
	for {
		req := calliope.EventsRequest{Since: since, Stream: stream}
		if follow && since > 0 {
			req.WaitMillis = 10000
		}
		rep, err := c.Events(req)
		if err != nil {
			fail(err)
		}
		for _, ev := range rep.Events {
			printEvent(ev)
		}
		since = rep.Next
		if !follow {
			return
		}
	}
}

// printEvent renders one timeline entry, omitting fields that do not
// apply to its kind.
func printEvent(ev calliope.Event) {
	line := fmt.Sprintf("%s  %-16s", ev.Time.Format("15:04:05.000"), ev.Kind)
	if ev.Session != 0 {
		line += fmt.Sprintf(" sess=%d", ev.Session)
	}
	if ev.Group != 0 {
		line += fmt.Sprintf(" group=%d", ev.Group)
	}
	if ev.Stream != 0 {
		line += fmt.Sprintf(" stream=%d", ev.Stream)
	}
	if ev.MSU != "" {
		line += fmt.Sprintf(" msu=%s", ev.MSU)
	}
	if ev.Disk >= 0 {
		line += fmt.Sprintf(" disk=%d", ev.Disk)
	}
	if ev.Content != "" {
		line += fmt.Sprintf(" content=%q", ev.Content)
	}
	if ev.Detail != "" {
		line += "  " + ev.Detail
	}
	fmt.Println(line)
}

// play streams content to a local receiver and drives VCR commands
// from stdin.
func play(c *calliope.Client, content string) {
	items, err := c.ListContent()
	if err != nil {
		fail(err)
	}
	var typ string
	for _, it := range items {
		if it.Name == content {
			typ = it.Type
		}
	}
	if typ == "" {
		fail(fmt.Errorf("no such content %q", content))
	}
	recv, err := calliope.NewReceiver("")
	if err != nil {
		fail(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", typ, recv.Addr(), ""); err != nil {
		fail(err)
	}
	stream, err := c.Play(content, "tv", true)
	if err != nil {
		fail(err)
	}
	fmt.Printf("playing %q (%v) from %s — commands: pause, play, seek <dur>, ff, fb, quit\n",
		content, stream.Length().Round(time.Millisecond), stream.Info().MSU)

	// The event printer gets an explicit shutdown edge so it does not
	// outlive the play session (goroleak).
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-stream.EOF():
				fmt.Printf("\n[end of content — %d packets, %s received]\n> ", recv.Count(), units.ByteSize(recv.Bytes()))
			case m := <-stream.Migrated():
				fmt.Printf("\n[server failed — stream moved to %s]\n> ", m.MSU)
			case l := <-stream.Lost():
				fmt.Printf("\n[stream lost: %s]\n> ", l.Reason)
			}
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		var err error
		switch fields[0] {
		case "pause":
			_, err = stream.Pause()
		case "play":
			_, err = stream.Resume()
		case "seek":
			if len(fields) < 2 {
				err = fmt.Errorf("seek needs a duration")
				break
			}
			var pos time.Duration
			if pos, err = time.ParseDuration(fields[1]); err == nil {
				_, err = stream.Seek(pos)
			}
		case "ff":
			_, err = stream.FastForward()
		case "fb":
			_, err = stream.FastBackward()
		case "quit":
			if err := stream.Quit(); err != nil {
				fail(err)
			}
			fmt.Printf("stopped: %d packets, %s received\n", recv.Count(), units.ByteSize(recv.Bytes()))
			return
		default:
			err = fmt.Errorf("unknown command %q", fields[0])
		}
		if err != nil {
			fmt.Println("error:", err)
		}
		fmt.Print("> ")
	}
}

// record generates a synthetic stream of the given type and records it
// in real time.
func record(c *calliope.Client, name, typ string, dur time.Duration) {
	recv, err := calliope.NewReceiver("")
	if err != nil {
		fail(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("cam", typ, recv.Addr(), ""); err != nil {
		fail(err)
	}
	rec, err := c.Record(name, typ, "cam", dur+dur/4, false)
	if err != nil {
		fail(err)
	}
	data, _ := rec.Sink(typ)
	if data == "" {
		fail(fmt.Errorf("no data sink for type %q", typ))
	}
	conn, err := net.Dial("udp", data)
	if err != nil {
		fail(err)
	}
	defer conn.Close()

	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 4096, FPS: 30, GOP: 15, Duration: dur,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("recording %q: sending %d packets over %v to %s\n", name, len(pkts), dur, data)
	start := time.Now()
	for _, p := range pkts {
		if d := time.Until(start.Add(p.Time)); d > 0 {
			time.Sleep(d)
		}
		if _, err := conn.Write(p.Payload); err != nil {
			fail(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := rec.Stop(); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %q\n", name)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: calliope-client [-coordinator addr] {list|types|status|watch [interval]|events [--follow] [--stream N]|play <content>|record <name> <type> <duration>|delete <content>}")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "calliope-client:", err)
	os.Exit(1)
}
