// Command coordinator runs a Calliope Coordinator: the global resource
// manager clients contact first (§2.2). One per installation.
//
// Usage:
//
//	coordinator -addr 127.0.0.1:4160 [-state /var/lib/calliope] [-queue-timeout 30s] [-http 127.0.0.1:4161] [-quiet]
//
// With -http, an observability endpoint serves Prometheus-text
// metrics at /metrics, the JSON event timeline at /events, and
// net/http/pprof under /debug/pprof/. It is opt-in and unauthenticated
// — bind it to a loopback or operations network only.
//
// With -state, every administrative mutation (content catalog, replica
// locations, content types, ID counters, in-flight recordings) is
// journaled durably to that directory before it is acknowledged, and a
// restarted coordinator recovers from it: MSUs re-register, clients
// reconnect, and recordings interrupted by the crash are reported
// lost. Without -state the administrative database is memory-only, as
// in the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calliope"
	"calliope/internal/admindb"
	"calliope/internal/coordinator"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4160", "TCP listen address for clients and MSUs")
	state := flag.String("state", "", "directory for the durable administrative database (empty: memory-only)")
	queueTimeout := flag.Duration("queue-timeout", 30*time.Second, "how long queued play requests may wait")
	httpAddr := flag.String("http", "", "listen address for the observability HTTP endpoint (/metrics, /events, /debug/pprof/); empty: disabled")
	quiet := flag.Bool("quiet", false, "disable operational logging")
	flag.Parse()

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "coordinator: ", log.LstdFlags)
	}
	cfg := coordinator.Config{
		Addr:         *addr,
		Types:        calliope.DefaultTypes(),
		QueueTimeout: *queueTimeout,
		Logger:       logger,
	}
	var store *admindb.DB
	if *state != "" {
		var err error
		store, err = admindb.Open(admindb.Options{Dir: *state, Logger: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Store = store
	}
	c, err := coordinator.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := c.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("coordinator listening on %s\n", c.Addr())
	if store != nil {
		fmt.Printf("administrative database in %s\n", *state)
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		httpSrv = &http.Server{Handler: c.HTTPHandler()}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		fmt.Printf("observability endpoint on http://%s/metrics\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if httpSrv != nil {
		httpSrv.Close() //nolint:errcheck // teardown; the listener is going away regardless
	}
	c.Close()
	if store != nil {
		store.Close() //nolint:errcheck // every mutation is already durable
	}
}
