package calliope

import (
	"fmt"

	"calliope/internal/admindb"
	"calliope/internal/coordinator"
	"calliope/internal/msu"
)

// RestartMSU replaces MSU idx with a fresh server process on the same
// volumes — the recovery path of §2.2: the returning MSU contacts the
// Coordinator and is restored to the scheduling database.
func (c *Cluster) RestartMSU(idx int) (*msu.MSU, error) {
	if idx < 0 || idx >= len(c.vols) {
		return nil, fmt.Errorf("calliope: no MSU %d", idx)
	}
	mcfg := c.msuCfgs[idx]
	mcfg.Coordinator = c.Addr() // the Coordinator may have restarted on a new port
	m, err := msu.New(mcfg)
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		m.Close() //nolint:errcheck // the Start error is the one reported
		return nil, err
	}
	c.MSUs[idx] = m
	return m, nil
}

// RestartCoordinator kills the Coordinator and replaces it with a
// fresh instance recovered from the state directory — the
// crash–restart path. The administrative store is cut off before the
// teardown so nothing the dying Coordinator writes on the way down
// reaches disk (a real crash writes nothing either); the replacement
// reopens the directory, replays snapshot + journal, and listens on
// the same address so the existing reconnect machinery — MSU
// re-registration with backoff, client reconnect + port replay —
// converges on it. Active sessions and registrations drop, as in a
// crash; the MSU→client data plane keeps flowing. Requires
// ClusterConfig.StateDir.
func (c *Cluster) RestartCoordinator() error {
	if c.store == nil {
		return fmt.Errorf("calliope: RestartCoordinator needs ClusterConfig.StateDir")
	}
	cfg := c.coordCfg
	cfg.Addr = c.Coordinator.Addr() // keep the address MSUs and clients redial
	c.store.Close()                 //nolint:errcheck // crash semantics: teardown writes are dropped
	c.Coordinator.Close()
	store, err := admindb.Open(admindb.Options{Dir: c.stateDir, Logger: cfg.Logger})
	if err != nil {
		return err
	}
	cfg.Store = store
	coord, err := coordinator.New(cfg)
	if err != nil {
		store.Close() //nolint:errcheck // the New error is the one reported
		return err
	}
	if err := coord.Start(); err != nil {
		store.Close() //nolint:errcheck // the Start error is the one reported
		return err
	}
	c.Coordinator = coord
	c.store = store
	c.coordCfg = cfg
	return nil
}
