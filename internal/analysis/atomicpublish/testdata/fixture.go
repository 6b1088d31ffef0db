// Package fixture exercises the atomicpublish analyzer: values handed to
// atomic.Pointer.Store are visible to lock-free readers and must not be
// written afterwards.
package fixture

import "sync/atomic"

type config struct {
	Limit int
	Tags  []string
}

type cache struct {
	snap atomic.Pointer[map[string]int]
	cfg  atomic.Pointer[config]
}

// --- true positives -----------------------------------------------------

func writeAfterAddrPublish(c *cache) {
	m := map[string]int{"a": 1}
	c.snap.Store(&m)
	m["b"] = 2 // want "write through m after its address was published|write to m after its address was published"
}

func rebindAfterAddrPublish(c *cache) {
	m := map[string]int{"a": 1}
	c.snap.Store(&m)
	m = map[string]int{"b": 2} // want "write to m after its address was published"
	_ = m
}

func writeAfterRefPublish(c *cache) {
	cfg := &config{Limit: 1}
	c.cfg.Store(cfg)
	cfg.Limit = 2 // want "write through cfg after its referent was published"
}

func writeThroughAlias(c *cache) {
	cfg := &config{Limit: 1}
	c.cfg.Store(cfg)
	alias := cfg
	alias.Limit = 2 // want "write through alias after its referent was published"
}

func publishOnOneBranchOnly(c *cache, fast bool) {
	m := map[string]int{}
	if fast {
		c.snap.Store(&m)
	}
	m["k"] = 1 // want "write to m after its address was published|write through m after its address was published"
}

func incAfterPublish(c *cache) {
	cfg := &config{}
	c.cfg.Store(cfg)
	cfg.Limit++ // want "write through cfg after its referent was published"
}

// --- true negatives -----------------------------------------------------

func publishLast(c *cache) {
	m := map[string]int{"a": 1}
	m["b"] = 2
	c.snap.Store(&m)
}

// The copy-on-write republish loop: := opens fresh storage each iteration, so
// the back edge's taint dies at the redeclaration.
func freshPerIteration(c *cache, updates []string) {
	for _, k := range updates {
		old := c.snap.Load()
		next := make(map[string]int, len(*old)+1)
		for kk, vv := range *old {
			next[kk] = vv
		}
		next[k] = 1
		c.snap.Store(&next)
	}
}

func rebindAfterRefPublish(c *cache) {
	cfg := &config{Limit: 1}
	c.cfg.Store(cfg)
	// Retargeting the pointer variable leaves the published object alone.
	cfg = &config{Limit: 2}
	cfg.Limit = 3
	c.cfg.Store(cfg)
}

func readAfterPublish(c *cache) int {
	m := map[string]int{"a": 1}
	c.snap.Store(&m)
	return m["a"]
}

func unrelatedVariable(c *cache) {
	m := map[string]int{}
	other := map[string]int{}
	c.snap.Store(&m)
	other["k"] = 1
	_ = other
}

// --- suppression --------------------------------------------------------

func suppressedWrite(c *cache) {
	m := map[string]int{}
	c.snap.Store(&m)
	m["k"] = 1 //fusecu:allow atomicpublish: fixture — intentional post-publication write proving suppression works
}
