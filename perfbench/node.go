package main

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// syncDelay is the modelled disk: every journal fsync holds the
// journal this much longer than the host's own fsync took, so the
// commit cost is the same on every host and host fsync jitter is a
// small part of it.
const syncDelay = 5 * time.Millisecond

// snapshotEvery is witchd's default -snapshot-every.
const snapshotEvery = 256

// nodeConfig describes one daemon to boot in-process.
type nodeConfig struct {
	url      string // base URL; its host routes on the memNet
	dir      string // data dir; "" boots a memory-only daemon
	now      func() time.Time
	observed bool // attach an obs.Observer (traced runs)
	noCache  bool // the oracle: store memo and rendered cache off
	peers    []string
	rf       int
	net      http.RoundTripper // inter-node transport
}

// node is one booted daemon.
type node struct {
	cfg  nodeConfig
	st   *store.Store
	srv  *daemon.Server
	pers *daemon.Persistence
	cl   *cluster.Router
	ob   *obs.Observer
	h    http.Handler
}

func bootNode(c nodeConfig) (*node, error) {
	n := &node{cfg: c}
	if c.observed {
		n.ob = obs.New(obs.Options{Node: c.url, TraceRing: 4096, SlowCapture: 32, Log: obs.NewLogger(io.Discard, obs.LevelError)})
	}
	n.st = store.New(store.Config{Now: c.now, NoCache: c.noCache})
	n.srv = daemon.NewServer(n.st, daemon.Config{Now: c.now, NoQueryCache: c.noCache, Obs: n.ob})
	if c.dir != "" {
		n.srv.SetState(daemon.StateRecovering)
		ob := n.ob
		pers, err := daemon.OpenPersistence(c.dir, n.st, n.srv.Dedup(), wal.Options{
			GroupCommit: true, SyncDelay: syncDelay,
			ObserveCommit: func(wait time.Duration) { ob.Stage(obs.StageJournal, wait) },
		}, snapshotEvery)
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", c.url, err)
		}
		n.pers = pers
		n.srv.AttachPersistence(pers)
	}
	if len(c.peers) > 1 {
		cl, err := cluster.New(cluster.Config{
			Self: c.url, Peers: c.peers, ReplicationFactor: c.rf,
			Client: &http.Client{Transport: c.net},
			Now:    c.now,
			Logf:   func(string, ...any) {},
			Obs:    n.ob,
		})
		if err != nil {
			n.stop()
			return nil, err
		}
		n.cl = cl
		n.srv.AttachCluster(cl)
		if c.rf > 1 {
			if err := n.srv.StartReplication(daemon.ReplicationConfig{
				HintDir:        filepath.Join(c.dir, "hints"),
				DrainInterval:  50 * time.Millisecond,
				RepairInterval: -1,
				WalOpts:        wal.Options{SyncDelay: syncDelay},
				Logf:           func(string, ...any) {},
			}); err != nil {
				n.stop()
				return nil, err
			}
		}
	}
	n.srv.SetState(daemon.StateServing)
	n.h = n.srv.Handler()
	return n, nil
}

// stop shuts the daemon down the way SIGTERM does: replication off,
// journal synced, final snapshot.
func (n *node) stop() error {
	if n.cl != nil {
		n.srv.StopReplication()
	}
	if n.pers != nil {
		err := n.pers.Shutdown()
		n.pers = nil
		return err
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
