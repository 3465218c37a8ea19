package transport

// Fault injection for torture-testing the DSM protocols under
// adversarial networks. The original LOTS was only ever evaluated on a
// dedicated cluster interconnect; this file supplies the missing
// adversary: seeded, deterministic drop, duplication, reordering,
// delay, and transient partitions, injected at two levels:
//
//   - Packet level (UDP): a packetChaos layer sits between the
//     sliding-window flow control and the socket, mangling raw
//     datagrams. The window/ack/retransmission machinery must recover,
//     so this is the direct torture test of §3.6's flow control.
//
//   - Message level (any Endpoint): Chaosify wraps an Endpoint whose
//     delivery is already exactly-once and FIFO per link (mem, TCP), so
//     the only thing a hostile link can do to the protocol above is
//     delay it. Each message waits on a per-link FIFO pump for what its
//     seeded fault plan costs — the rest of a partition window, a drawn
//     latency, a retransmission timeout for a "drop", a step-aside for
//     a "reorder", nothing for a duplicate the receiver would discard —
//     and is then sent unchanged, once. Nothing is stamped, rewritten,
//     deduplicated or resequenced.
//
// All random decisions come from rand.Rand instances seeded from
// Chaos.Seed and the link's (src, dst) pair, so a fixed seed yields a
// reproducible fault schedule per link regardless of scheduling.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Chaos configures fault injection. The zero value injects nothing;
// DefaultChaos returns an aggressive-but-test-friendly profile.
type Chaos struct {
	// Seed makes the fault schedule reproducible.
	Seed int64

	// Drop is the probability a transmission is lost. At packet level
	// the datagram vanishes (retransmission recovers it); at message
	// level it arrives a retransmission timeout late.
	Drop float64
	// Dup is the probability a transmission is delivered twice (packet
	// level; at message level it is counted and costs nothing).
	Dup float64
	// Reorder is the probability a transmission is held back: at packet
	// level released after the following one on the same link, at
	// message level held for a moment with the link's FIFO behind it.
	Reorder float64

	// DelayMin/DelayMax bound the uniform per-transmission latency.
	DelayMin, DelayMax time.Duration

	// PartitionEvery/PartitionFor carve transient full-partition
	// windows out of the timeline: every PartitionEvery, all links are
	// dead for PartitionFor. Zero disables partitions.
	PartitionEvery, PartitionFor time.Duration

	// ConnKillEvery makes the TCP transport sever one live peer
	// connection roughly this often, exercising reconnect-and-resume.
	// Zero disables the killer.
	ConnKillEvery time.Duration

	// Stats, when non-nil, receives fault counts from every layer this
	// configuration is installed in.
	Stats *ChaosStats
}

// DefaultChaos returns a hostile network profile suitable for tests:
// visible loss, duplication and reordering on every link, plus short
// transient partitions and TCP connection kills, all within the
// recovery budget of the UDP retransmission path.
func DefaultChaos(seed int64) Chaos {
	return Chaos{
		Seed:           seed,
		Drop:           0.08,
		Dup:            0.10,
		Reorder:        0.15,
		DelayMin:       0,
		DelayMax:       2 * time.Millisecond,
		PartitionEvery: 700 * time.Millisecond,
		PartitionFor:   120 * time.Millisecond,
		ConnKillEvery:  250 * time.Millisecond,
	}
}

// ChaosStats counts injected faults, so tests can assert the adversary
// actually showed up.
type ChaosStats struct {
	Dropped    atomic.Int64
	Duplicated atomic.Int64
	Reordered  atomic.Int64
	Delayed    atomic.Int64
	Partition  atomic.Int64 // transmissions hit by a partition window
	ConnKills  atomic.Int64
}

// Total returns the number of injected faults of any kind.
func (s *ChaosStats) Total() int64 {
	return s.Dropped.Load() + s.Duplicated.Load() + s.Reordered.Load() +
		s.Delayed.Load() + s.Partition.Load() + s.ConnKills.Load()
}

// stats returns the shared sink, or a private one when the caller did
// not ask to observe.
func (c *Chaos) stats() *ChaosStats {
	if c.Stats == nil {
		c.Stats = &ChaosStats{}
	}
	return c.Stats
}

// linkSeed derives a per-link RNG seed so each (src, dst) pair has an
// independent, reproducible fault schedule.
func (c *Chaos) linkSeed(src, dst int) int64 {
	h := uint64(c.Seed) ^ uint64(src+1)*0x9E3779B97F4A7C15 ^ uint64(dst+1)*0xC2B2AE3D27D4EB4F
	return int64(h)
}

// inPartition reports whether t (measured from the chaos epoch) falls
// inside a transient partition window, and if so how long the window
// has left.
func (c *Chaos) inPartition(since time.Duration) (bool, time.Duration) {
	if c.PartitionEvery <= 0 || c.PartitionFor <= 0 {
		return false, 0
	}
	phase := since % c.PartitionEvery
	if phase < c.PartitionFor {
		return true, c.PartitionFor - phase
	}
	return false, 0
}

// delay draws one transmission latency. rng is caller-locked.
func (c *Chaos) delay(rng *rand.Rand) time.Duration {
	if c.DelayMax <= c.DelayMin {
		return c.DelayMin
	}
	return c.DelayMin + time.Duration(rng.Int63n(int64(c.DelayMax-c.DelayMin)))
}

// decision is the fault plan for one message-level transmission. It is
// a pure function of (link, seq), so the schedule is reproducible
// regardless of goroutine interleaving.
type decision struct {
	drop, dup, reorder bool
	delay              time.Duration
}

func (c *Chaos) decideMsg(linkSeed int64, seq uint64) decision {
	rng := rand.New(rand.NewSource(linkSeed ^ int64(seq*0x9E3779B97F4A7C15+0x1234567)))
	var d decision
	d.reorder = c.Reorder > 0 && rng.Float64() < c.Reorder
	d.delay = c.delay(rng)
	d.drop = c.Drop > 0 && rng.Float64() < c.Drop
	d.dup = c.Dup > 0 && rng.Float64() < c.Dup
	return d
}

// ---- Packet-level chaos (UDP datagrams) ---------------------------------

// packetChaos mangles raw datagrams on their way to the socket. deliver
// must be safe for concurrent use and must not retain the frame.
type packetChaos struct {
	cfg     Chaos
	stats   *ChaosStats
	start   time.Time
	deliver func(peer int, frame []byte)

	mu     sync.Mutex
	rng    *rand.Rand
	held   map[int][]byte // one reorder-held frame per peer
	closed bool
}

func newPacketChaos(cfg Chaos, salt int, deliver func(peer int, frame []byte)) *packetChaos {
	return &packetChaos{
		cfg:     cfg,
		stats:   cfg.stats(),
		start:   time.Now(),
		deliver: deliver,
		rng:     rand.New(rand.NewSource(cfg.linkSeed(salt, 0x7a7))),
		held:    make(map[int][]byte),
	}
}

func (p *packetChaos) close() {
	p.mu.Lock()
	p.closed = true
	p.held = make(map[int][]byte)
	p.mu.Unlock()
}

// write injects faults and forwards the frame (zero or more times).
// The flow-control layer above must tolerate every outcome.
func (p *packetChaos) write(peer int, frame []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if in, _ := p.cfg.inPartition(time.Since(p.start)); in {
		p.stats.Partition.Add(1)
		p.mu.Unlock()
		return // the link is down; retransmission will retry later
	}
	if p.cfg.Drop > 0 && p.rng.Float64() < p.cfg.Drop {
		p.stats.Dropped.Add(1)
		p.mu.Unlock()
		return
	}
	dup := p.cfg.Dup > 0 && p.rng.Float64() < p.cfg.Dup
	d := p.cfg.delay(p.rng)
	// Reordering: hold this frame and release it after the next one to
	// the same peer (or after a flush timeout, so a quiet link does not
	// strand it past the retransmission clock).
	if prev, ok := p.held[peer]; ok {
		delete(p.held, peer)
		p.mu.Unlock()
		p.send(peer, frame, d, dup)
		p.send(peer, prev, d, false)
		return
	}
	if p.cfg.Reorder > 0 && p.rng.Float64() < p.cfg.Reorder {
		p.stats.Reordered.Add(1)
		cp := append([]byte(nil), frame...)
		p.held[peer] = cp
		p.mu.Unlock()
		time.AfterFunc(5*time.Millisecond, func() { p.flush(peer, cp) })
		return
	}
	p.mu.Unlock()
	p.send(peer, frame, d, dup)
}

func (p *packetChaos) send(peer int, frame []byte, d time.Duration, dup bool) {
	if dup {
		p.stats.Duplicated.Add(1)
	}
	emit := func() {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		p.deliver(peer, frame)
		if dup {
			p.deliver(peer, frame)
		}
	}
	if d <= 0 {
		emit()
		return
	}
	p.stats.Delayed.Add(1)
	cp := append([]byte(nil), frame...)
	frame = cp
	time.AfterFunc(d, emit)
}

// flush releases a reorder-held frame that never saw a successor.
func (p *packetChaos) flush(peer int, frame []byte) {
	p.mu.Lock()
	held, ok := p.held[peer]
	if !ok || &held[0] != &frame[0] {
		p.mu.Unlock()
		return
	}
	delete(p.held, peer)
	closed := p.closed
	p.mu.Unlock()
	if !closed {
		p.deliver(peer, frame)
	}
}

// ---- Message-level chaos (any Endpoint) ---------------------------------

const (
	// chaosRetransmitDelay is what a "dropped" message-level
	// transmission costs: the recovery latency of a lossy link.
	chaosRetransmitDelay = 5 * time.Millisecond
	// chaosStepAside is how long a "reordered" transmission is held.
	chaosStepAside = 2 * time.Millisecond
)

// ChaosEndpoint wraps an Endpoint in seeded fault injection while
// still presenting an exactly-once, per-link FIFO channel to the
// protocol above. See the comment at the top of this file for the
// model.
type ChaosEndpoint struct {
	inner Endpoint
	cfg   Chaos
	stats *ChaosStats
	start time.Time

	mu      sync.Mutex
	closed  bool
	sendErr error
	links   []chaosLink
}

// chaosLink is one destination's FIFO. The head is the message its
// pump is carrying; it leaves the queue only once the inner endpoint
// has it, so an empty queue means nothing is held here.
type chaosLink struct {
	cond  *sync.Cond // on ChaosEndpoint.mu; nil until the first Send starts the pump
	queue []wire.Message
}

// Chaosify wraps ep in message-level fault injection.
func Chaosify(ep Endpoint, cfg Chaos) *ChaosEndpoint {
	return &ChaosEndpoint{
		inner: ep,
		cfg:   cfg,
		stats: cfg.stats(),
		start: time.Now(),
		links: make([]chaosLink, ep.N()),
	}
}

// WrapEndpoints chaosifies every endpoint of a cluster with one shared
// configuration (and one shared ChaosStats sink).
func WrapEndpoints(eps []Endpoint, cfg Chaos) []Endpoint {
	cfg.stats() // materialize the shared sink before copying cfg
	out := make([]Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = Chaosify(ep, cfg)
	}
	return out
}

// ID returns the inner endpoint's rank.
func (e *ChaosEndpoint) ID() int { return e.inner.ID() }

// N returns the cluster size.
func (e *ChaosEndpoint) N() int { return e.inner.N() }

// Send queues m on the destination link's pump, which hands it to the
// inner endpoint after the pause its seeded fault plan calls for. The
// payload is copied: callers (the coalescer's pooled batch slab) may
// reuse it as soon as Send returns.
func (e *ChaosEndpoint) Send(m wire.Message) error {
	if int(m.To) >= len(e.links) {
		return ErrBadDest
	}
	m.Payload = append([]byte(nil), m.Payload...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.sendErr != nil {
		return e.sendErr
	}
	l := &e.links[m.To]
	if l.cond == nil {
		l.cond = sync.NewCond(&e.mu)
		go e.pump(l, e.cfg.linkSeed(e.inner.ID(), int(m.To)))
	}
	l.queue = append(l.queue, m)
	l.cond.Signal()
	return nil
}

// pump is the per-link sender: it carries the link's messages across
// in order, the seq-th after the pause of the seq-th fault plan.
func (e *ChaosEndpoint) pump(l *chaosLink, linkSeed int64) {
	for seq := uint64(0); ; seq++ {
		e.mu.Lock()
		for len(l.queue) == 0 && !e.closed {
			l.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		m := l.queue[0]
		e.mu.Unlock()

		time.Sleep(e.pause(e.cfg.decideMsg(linkSeed, seq)))
		err := e.inner.Send(m)

		e.mu.Lock()
		l.queue[0] = wire.Message{}
		l.queue = l.queue[1:]
		if err != nil && e.sendErr == nil && !e.closed {
			e.sendErr = err
		}
		e.mu.Unlock()
	}
}

// pause counts the faults of one transmission and returns what they
// cost on a link whose underlay delivers exactly once and in order.
func (e *ChaosEndpoint) pause(dec decision) time.Duration {
	var wait time.Duration
	if in, left := e.cfg.inPartition(time.Since(e.start)); in {
		// The link is down: nothing crosses until the window lifts.
		e.stats.Partition.Add(1)
		wait += left
	}
	if dec.delay > 0 {
		e.stats.Delayed.Add(1)
		wait += dec.delay
	}
	if dec.drop {
		e.stats.Dropped.Add(1)
		wait += chaosRetransmitDelay
	}
	if dec.reorder {
		e.stats.Reordered.Add(1)
		wait += chaosStepAside
	}
	if dec.dup {
		// The receiver would discard the second copy: no cost.
		e.stats.Duplicated.Add(1)
	}
	return wait
}

// Recv returns the inner endpoint's next message.
func (e *ChaosEndpoint) Recv() (wire.Message, bool) { return e.inner.Recv() }

// Drain waits for the pumps to hand everything queued to the inner
// endpoint, then drains that for what is left of the timeout.
func (e *ChaosEndpoint) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		queued := 0
		e.mu.Lock()
		for i := range e.links {
			queued += len(e.links[i].queue)
		}
		closed := e.closed
		e.mu.Unlock()
		if queued == 0 || closed {
			return e.inner.Drain(time.Until(deadline))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: drain timeout with %d messages queued in chaos pumps", queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close shuts the wrapper and the inner endpoint down; what the pumps
// still hold is dropped (Drain first to deliver it).
func (e *ChaosEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	for i := range e.links {
		if c := e.links[i].cond; c != nil {
			c.Broadcast()
		}
	}
	e.mu.Unlock()
	return e.inner.Close()
}
