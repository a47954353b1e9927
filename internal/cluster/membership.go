package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"privascope/internal/runtime"
)

// This file is the live-membership layer: the Router's ring-change primitives
// (join, graceful leave, eviction of a dead node) and the Local cluster's
// orchestration on top of them, which moves per-user monitor state between
// nodes through the /handoff endpoint.
//
// Every change follows the same protocol under the router's exclusive
// membership lock, so the Send plane is frozen while ownership moves:
//
//  1. Seal: flush every live sender (cut partial frames, wait until every cut
//     frame is accepted or dropped). For an eviction the dead node's sender is
//     instead marked dead — before the lock is taken, so sends blocked on its
//     full queue park their frames — and its undelivered frames are parked.
//  2. Handoff: export the moved users' snapshots from their old owners and
//     import them on the new ones (the caller-supplied callback).
//  3. Swap: install the new ring and increment the epoch.
//  4. Re-route (eviction only): decode the dead sender's parked frames, skip
//     the prefix its stream cursor proves already applied, and route the rest
//     to the ring successors — in-flight events are re-routed, never dropped.

// HandoffReason values for the HeaderHandoffReason label.
const (
	ReasonRebalance = "rebalance"
	ReasonFailover  = "failover"
)

// AddNode joins a node to the ring at a new epoch. The handoff callback runs
// after the fleet is sealed and before the ring swap; it receives the old and
// new rings and is responsible for moving the users whose owner changes.
func (r *Router) AddNode(ctx context.Context, name, url string, handoff func(oldRing, newRing *Ring) error) error {
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	if _, ok := r.senders[name]; ok {
		return fmt.Errorf("cluster: node %q already in the ring", name)
	}
	if url == "" {
		return fmt.Errorf("cluster: node %q has no URL", name)
	}
	oldRing := r.ring.Load()
	newRing, err := oldRing.WithNode(name)
	if err != nil {
		return err
	}
	if err := r.flushSealed(ctx, ""); err != nil {
		return err
	}
	if handoff != nil {
		if err := handoff(oldRing, newRing); err != nil {
			return fmt.Errorf("cluster: handoff to %q: %w", name, err)
		}
	}
	r.startSender(name, url)
	r.ring.Store(newRing)
	r.epoch.Add(1)
	return nil
}

// RemoveNode gracefully retires a node: its sender finishes delivering
// everything it owes, the handoff callback moves the node's users to their
// ring successors, and the ring is swapped at a new epoch. The last node
// cannot be removed.
func (r *Router) RemoveNode(ctx context.Context, name string, handoff func(oldRing, newRing *Ring) error) error {
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	s, ok := r.senders[name]
	if !ok {
		return fmt.Errorf("cluster: node %q not in the ring", name)
	}
	oldRing := r.ring.Load()
	newRing, err := oldRing.WithoutNode(name)
	if err != nil {
		return err
	}
	if err := r.flushSealed(ctx, ""); err != nil {
		return err
	}
	if handoff != nil {
		if err := handoff(oldRing, newRing); err != nil {
			return fmt.Errorf("cluster: handoff from %q: %w", name, err)
		}
	}
	delete(r.senders, name)
	close(s.frames)
	r.ring.Store(newRing)
	r.epoch.Add(1)
	return nil
}

// EvictNode removes a dead node from the ring. Its sender is marked dead so
// in-flight delivery attempts abort and park their frames; the handoff
// callback fails the node's users over to their ring successors; and the
// parked frames — minus the prefix the dead node's stream cursor (read via
// the cursor callback) proves it already applied — are re-routed under the
// new ring. Combined with the receiving side's stream-offset deduplication
// this makes eviction lose nothing and duplicate nothing, whatever the crash
// timing.
func (r *Router) EvictNode(ctx context.Context, name string, handoff func(oldRing, newRing *Ring) error, cursor func(stream string) int64) error {
	// Mark the sender dead before taking the exclusive lock: a flush or send
	// blocked on the dead node's full frame queue holds the shared lock, and
	// only the dead signal (or the sender exhausting its retries, which
	// drops frames) releases it.
	r.memberMu.RLock()
	s, ok := r.senders[name]
	r.memberMu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: node %q not in the ring", name)
	}
	oldRing := r.ring.Load()
	if _, err := oldRing.WithoutNode(name); err != nil {
		return err
	}
	s.markDead()
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	if r.senders[name] != s {
		return fmt.Errorf("cluster: node %q not in the ring", name)
	}
	oldRing = r.ring.Load()
	newRing, err := oldRing.WithoutNode(name)
	if err != nil {
		return err
	}
	if err := r.waitSettled(ctx, s); err != nil {
		return err
	}
	if err := r.flushSealed(ctx, name); err != nil {
		return err
	}
	if handoff != nil {
		if err := handoff(oldRing, newRing); err != nil {
			return fmt.Errorf("cluster: failover from %q: %w", name, err)
		}
	}
	delete(r.senders, name)
	close(s.frames)
	r.ring.Store(newRing)
	r.epoch.Add(1)

	// Re-route what the dead node never applied. Frames below its stream
	// cursor were applied before it died (their responses may have been
	// lost); replaying them would double-count, so they are skipped.
	next := int64(0)
	if cursor != nil {
		next = cursor(r.streamFor(name))
	}
	s.mu.Lock()
	parked := s.parked
	s.parked = nil
	// Frames parked by a blocked cut can precede older frames the sender
	// parked afterwards; re-route in stream order to keep per-user order.
	sort.Slice(parked, func(i, j int) bool { return parked[i].idx < parked[j].idx })
	buffered := s.buf
	s.buf = nil
	s.mu.Unlock()
	for _, f := range parked {
		if f.idx < next {
			r.failoverSkip.Add(1)
			continue
		}
		batch, err := NewFrameReader(bytes.NewReader(f.data)).Read()
		if err != nil {
			return fmt.Errorf("cluster: re-decoding parked frame %d: %w", f.idx, err)
		}
		for _, ev := range batch {
			if err := r.route(ctx, ev); err != nil {
				return err
			}
		}
		r.rerouted.Add(int64(len(batch)))
	}
	for _, ev := range buffered {
		if err := r.route(ctx, ev); err != nil {
			return err
		}
	}
	r.rerouted.Add(int64(len(buffered)))
	return nil
}

// waitSettled waits until a dead sender's loop has resolved every queued
// frame (parked them, since the sender is dead).
func (r *Router) waitSettled(ctx context.Context, s *nodeSender) error {
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for s.pending.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// AddNode starts a fresh node + server over the cluster's model and joins it
// to the ring, live: users whose ownership moves are handed off before the
// ring swap, and no in-flight event is dropped. It returns the new node.
func (c *Local) AddNode(ctx context.Context) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.nodeCfg
	cfg.Name = fmt.Sprintf("node%d", c.nextNode)
	node, err := NewNode(c.model, cfg)
	if err != nil {
		return nil, err
	}
	srv, err := StartNodeServer(node, "")
	if err != nil {
		node.Close()
		return nil, err
	}
	c.joining = &joiningNode{name: cfg.Name, url: srv.URL()}
	err = c.Router.AddNode(ctx, cfg.Name, srv.URL(), func(oldRing, newRing *Ring) error {
		return c.rebalanceLocked(ctx, newRing, ReasonRebalance, nil)
	})
	c.joining = nil
	if err != nil {
		_ = srv.Stop(ctx)
		node.Close()
		return nil, err
	}
	c.nextNode++
	c.Nodes = append(c.Nodes, node)
	c.Servers = append(c.Servers, srv)
	return node, nil
}

// RemoveNode gracefully retires the named node: the router finishes its
// deliveries, the node's users are handed off to their ring successors, and
// its server is stopped. The node's monitor is retained so its alert history
// still counts in Alerts.
func (c *Local) RemoveNode(ctx context.Context, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexOfLocked(name)
	if i < 0 {
		return fmt.Errorf("cluster: node %q not in the cluster", name)
	}
	node := c.Nodes[i]
	node.BeginDrain()
	err := c.Router.RemoveNode(ctx, name, func(oldRing, newRing *Ring) error {
		return c.rebalanceLocked(ctx, newRing, ReasonRebalance, node)
	})
	if err != nil {
		return err
	}
	c.detachLocked(i)
	if err := c.Servers[i].Stop(ctx); err != nil {
		c.dropServerLocked(i)
		return err
	}
	c.dropServerLocked(i)
	node.Close()
	return nil
}

// EvictNode fails the named node over: the router parks its in-flight
// frames, the node's users move to their ring successors from their last
// snapshot (the node is in-process, so its monitor is still readable even
// when its server is unreachable), and the parked frames the node never
// applied are re-routed. Its alert history is retained.
func (c *Local) EvictNode(ctx context.Context, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexOfLocked(name)
	if i < 0 {
		return fmt.Errorf("cluster: node %q not in the cluster", name)
	}
	node := c.Nodes[i]
	err := c.Router.EvictNode(ctx, name,
		func(oldRing, newRing *Ring) error {
			return c.rebalanceLocked(ctx, newRing, ReasonFailover, node)
		},
		node.StreamCursor,
	)
	if err != nil {
		return err
	}
	c.detachLocked(i)
	// The server may already be gone (that is usually why we are here);
	// stopping it again is harmless and its error carries no information.
	stopCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = c.Servers[i].Stop(stopCtx)
	cancel()
	c.dropServerLocked(i)
	node.Close()
	return nil
}

// indexOfLocked finds a live node by name.
func (c *Local) indexOfLocked(name string) int {
	for i, n := range c.Nodes {
		if n.Name() == name {
			return i
		}
	}
	return -1
}

// detachLocked moves Nodes[i] to the retired list (its monitor keeps the
// alert history the fleet already raised).
func (c *Local) detachLocked(i int) {
	c.retired = append(c.retired, c.Nodes[i])
	c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
}

// dropServerLocked removes Servers[i].
func (c *Local) dropServerLocked(i int) {
	c.Servers = append(c.Servers[:i], c.Servers[i+1:]...)
}

// rebalanceLocked moves every user whose owner under newRing differs from
// the node currently holding them. With only == nil all live nodes are
// scanned (a join pulls users from everywhere); otherwise just that node (a
// leave or failover pushes its whole population out). Sources are quiesced
// first so each exported snapshot reflects every event the node accepted.
func (c *Local) rebalanceLocked(ctx context.Context, newRing *Ring, reason string, only *Node) error {
	sources := c.Nodes
	if only != nil {
		sources = []*Node{only}
	}
	for _, src := range sources {
		if err := src.Quiesce(ctx); err != nil {
			return err
		}
		moved := make(map[string][]runtime.UserSnapshot)
		for _, userID := range src.Monitor().Users() {
			newOwner := newRing.Owner(userID)
			if newOwner == src.Name() {
				continue
			}
			snap, ok := src.Monitor().ExportUser(userID)
			if !ok {
				return fmt.Errorf("cluster: user %q vanished from %q during rebalance", userID, src.Name())
			}
			moved[newOwner] = append(moved[newOwner], snap)
		}
		for owner, snaps := range moved {
			url, err := c.urlOfLocked(owner)
			if err != nil {
				return err
			}
			if err := c.sendHandoff(ctx, url, snaps, reason); err != nil {
				return err
			}
			// Only drop the users from the source once the new owner has
			// them: a failed handoff leaves the cluster exactly as it was.
			for _, snap := range snaps {
				src.Monitor().RemoveUser(snap.Profile.ID)
			}
			src.handoffOut.Add(int64(len(snaps)))
		}
	}
	return nil
}

// urlOfLocked resolves a live node's base URL. A joining node is not yet in
// c.Nodes when its handoff runs, so the router's sender table cannot be the
// source of truth here; the Servers slice is.
func (c *Local) urlOfLocked(name string) (string, error) {
	for i, n := range c.Nodes {
		if n.Name() == name {
			return c.Servers[i].URL(), nil
		}
	}
	if c.joining != nil && c.joining.name == name {
		return c.joining.url, nil
	}
	return "", fmt.Errorf("cluster: no server for node %q", name)
}

// sendHandoff posts one PSHO frame, retrying a few times: imports are
// idempotent, so redelivery after a lost response converges.
func (c *Local) sendHandoff(ctx context.Context, url string, snaps []runtime.UserSnapshot, reason string) error {
	frame, err := EncodeHandoff(snaps)
	if err != nil {
		return err
	}
	var lastErr error
	delay := 10 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/handoff", bytes.NewReader(frame))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(HeaderHandoffReason, reason)
		resp, err := c.Router.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("handoff returned %s: %s", resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode == http.StatusUnprocessableEntity {
			return lastErr // validation failure will not improve on retry
		}
	}
	return lastErr
}
