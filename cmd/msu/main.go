// Command msu runs a Calliope Multimedia Storage Unit (§2.3): the
// real-time component that stores and delivers streams. Point it at a
// Coordinator and one or more disk image files.
//
// Usage:
//
//	msu -id msu0 -coordinator 127.0.0.1:4160 \
//	    -disk /var/calliope/disk0.img -disk /var/calliope/disk1.img \
//	    [-disk-size 2GB-equivalent-bytes] [-format] [-bandwidth-kbps 24000]
//
// Disk image files are created (with -format) or mounted as Calliope
// volumes; use mkcontent to load content into them offline.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// diskList collects repeated -disk flags.
type diskList []string

func (d *diskList) String() string     { return strings.Join(*d, ",") }
func (d *diskList) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	id := flag.String("id", "msu0", "MSU identifier")
	coordAddr := flag.String("coordinator", "127.0.0.1:4160", "Coordinator address")
	host := flag.String("host", "127.0.0.1", "IP for the MSU's UDP data sockets")
	size := flag.Int64("disk-size", int64(256*units.MB), "size of each disk image in bytes")
	format := flag.Bool("format", false, "format the disk images instead of mounting")
	bandwidthKbps := flag.Int64("bandwidth-kbps", 24000, "advertised per-disk delivery budget (kbit/s)")
	quiet := flag.Bool("quiet", false, "disable operational logging")
	var disks diskList
	flag.Var(&disks, "disk", "disk image path (repeatable)")
	flag.Parse()

	if len(disks) == 0 {
		fmt.Fprintln(os.Stderr, "msu: at least one -disk is required")
		os.Exit(2)
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "", log.LstdFlags)
	}

	var volumes []*msufs.Volume
	for _, path := range disks {
		dev, err := blockdev.OpenFile(path, *size)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var vol *msufs.Volume
		if *format {
			vol, err = msufs.Format(dev, msufs.Options{})
		} else {
			vol, err = msufs.Mount(dev)
			if errors.Is(err, msufs.ErrNotFormatted) {
				fmt.Fprintf(os.Stderr, "msu: %s: %v (-format makes it an empty volume)\n", path, err)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		volumes = append(volumes, vol)
	}

	m, err := msu.New(msu.Config{
		ID:            core.MSUID(*id),
		Coordinator:   *coordAddr,
		Host:          *host,
		Volumes:       volumes,
		DiskBandwidth: units.BitRate(*bandwidthKbps) * units.Kbps,
		Logger:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := m.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("msu %s serving %d disk(s), registered with %s\n", *id, len(volumes), *coordAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	m.Close()
}
