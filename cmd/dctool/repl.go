package main

// Replication verbs. These reach into internal/repl directly (dctool lives
// in the module) because followers are an operational role, not part of the
// embedding API: a replica process owns its whole directory and its
// lifecycle is drive-until-signalled, which fits a command better than a
// library handle.

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/repl"
	"github.com/dcindex/dctree/internal/storage"
)

// replicaSource builds the transport from the -from spec: an http:// or
// https:// base URL means the primary exposes `dctool ship`; anything else
// is a WAL path prefix on a shared filesystem.
func replicaSource(from, lease string, leaseTTL time.Duration) repl.Source {
	if strings.HasPrefix(from, "http://") || strings.HasPrefix(from, "https://") {
		return &repl.HTTPSource{Base: from}
	}
	return dirSource(from, lease, leaseTTL)
}

// dirSource is the filesystem transport over a WAL path prefix. An empty
// lease means no failure detector: the source always reports healthy. No
// lease path is invented, because nothing refreshes a file the operator
// did not set up, and a lease nobody refreshes reads as a dead primary.
func dirSource(prefix, lease string, leaseTTL time.Duration) *repl.DirSource {
	return &repl.DirSource{Prefix: prefix, Lease: lease, LeaseTTL: leaseTTL}
}

// runReplica starts a warm standby: it bootstraps (or resumes) a follower
// in -dir from the -from source and tails until interrupted. With
// -auto-promote, losing the source for -promote-after promotes the replica
// in place and exits; the directory then holds a read-write index that
// `dctool query -index <dir>/replica.dc -wal <dir>/wal` (or any embedding)
// can open.
func runReplica(args []string) error {
	fs := flag.NewFlagSet("replica", flag.ExitOnError)
	dir := fs.String("dir", "", "replica directory (store, mirrored log and checkpoints live here)")
	from := fs.String("from", "", "source: primary WAL path prefix, or http(s):// base URL of `dctool ship`")
	lease := fs.String("lease", "", "primary liveness lease file, refreshed by the primary's supervisor (filesystem transport; empty = no failure detector)")
	leaseTTL := fs.Duration("lease-ttl", repl.DefaultLeaseTTL, "lease staleness threshold")
	poll := fs.Duration("poll", repl.DefaultPoll, "source poll interval")
	ckptEvery := fs.Duration("checkpoint-every", 5*time.Second, "replica checkpoint cadence (bounds restart replay)")
	promoteAfter := fs.Duration("promote-after", 10*time.Second, "source downtime before the replica is promotable")
	autoPromote := fs.Bool("auto-promote", false, "promote automatically once the source has been down -promote-after")
	statusEvery := fs.Duration("status-every", 5*time.Second, "print a status line this often (0 = quiet)")
	fs.Parse(args)
	if *dir == "" || *from == "" {
		return fmt.Errorf("-dir and -from are required")
	}
	src := replicaSource(*from, *lease, *leaseTTL)
	if d, ok := src.(*repl.DirSource); ok && *autoPromote && d.Lease == "" {
		return fmt.Errorf("-auto-promote on the filesystem transport needs -lease: " +
			"without a lease file the replica cannot tell a dead primary from a live one")
	}

	f, err := repl.NewFollower(src, repl.FollowerOptions{
		Dir:             *dir,
		Config:          core.DefaultConfig(),
		Poll:            *poll,
		CheckpointEvery: *ckptEvery,
		PromoteAfter:    *promoteAfter,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("replica in %s tailing %s from lsn %d\n", *dir, *from, f.AppliedLSN()+1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var status <-chan time.Time
	if *statusEvery > 0 {
		t := time.NewTicker(*statusEvery)
		defer t.Stop()
		status = t.C
	}
	check := time.NewTicker(*poll * 4)
	defer check.Stop()

	for {
		select {
		case <-sig:
			fmt.Printf("stopping at lsn %d\n", f.AppliedLSN())
			return f.Close()
		case <-status:
			m := f.Metrics()
			health := "healthy"
			if !m.Healthy {
				health = fmt.Sprintf("source down %s", m.UnhealthyFor.Round(time.Second))
			}
			fmt.Printf("applied lsn %d, lag %d records / %d bytes, %s\n",
				m.AppliedLSN, m.LagLSN, m.LagBytes, health)
		case <-check.C:
			if err := f.Err(); err != nil {
				return err
			}
			if *autoPromote && f.Promotable() {
				fmt.Printf("source down past %s; promoting\n", *promoteAfter)
				tree, err := f.Promote()
				if err != nil {
					return err
				}
				fmt.Printf("promoted: %d records, read-write at %s\n", tree.Count(), *dir)
				return tree.Close()
			}
		}
	}
}

// runPromote promotes a replica directory whose follower process is not
// running (one-shot): it replays the mirrored log through recovery,
// checkpoints, and leaves the directory read-write.
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	dir := fs.String("dir", "", "replica directory to promote")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	cfg := core.DefaultConfig()
	tree, store, err := repl.PromoteDir(*dir, cfg.BlockSize, storage.WALOptions{})
	if err != nil {
		return err
	}
	defer store.Close()
	fmt.Printf("promoted: %d records (height %d), read-write at %s\n",
		tree.Count(), tree.Height(), *dir)
	if err := tree.Flush(); err != nil {
		tree.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	return tree.Close()
}

// runShip serves a primary's WAL directory to HTTP followers. It is a
// sidecar: it only reads the segment files (and the lease file, if -lease
// names one), so it can run beside any process that owns the log, or on a
// host that mounts it read-only.
func runShip(args []string) error {
	fs := flag.NewFlagSet("ship", flag.ExitOnError)
	walPrefix := fs.String("wal", "", "primary WAL path prefix to serve")
	addr := fs.String("addr", ":7421", "listen address")
	lease := fs.String("lease", "", "primary liveness lease file surfaced via /repl/v1/health (empty = always healthy: reaching this server is the signal)")
	leaseTTL := fs.Duration("lease-ttl", repl.DefaultLeaseTTL, "lease staleness threshold")
	fs.Parse(args)
	if *walPrefix == "" {
		return fmt.Errorf("-wal is required")
	}
	src := dirSource(*walPrefix, *lease, *leaseTTL)
	fmt.Printf("shipping %s.*.wal on %s\n", *walPrefix, *addr)
	return http.ListenAndServe(*addr, repl.NewServer(src).Handler())
}
