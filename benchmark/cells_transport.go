package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Transport cells: two endpoints of each kind, driven directly. Rank 1
// echoes pings and counts everything else; rank 0 is the timed side.

const (
	pingType   = wire.TObjFetchReq   // echoed back as pongType
	pongType   = wire.TObjFetchReply //
	streamType = wire.TBarrierDiff   // counted, not answered
)

// link is a connected pair of endpoints with rank 1's service loop.
type link struct {
	a, b     transport.Endpoint
	counters [2]*stats.Counters
	received chan struct{} // rank 1 reports each received one-way burst here
	burst    int           // messages rank 1 counts before reporting
	mu       sync.Mutex
	wg       sync.WaitGroup
	err      error
	closeAll func() error
}

func newLink(kind string) (*link, error) {
	l := &link{received: make(chan struct{}, 1)}
	l.counters[0], l.counters[1] = &stats.Counters{}, &stats.Counters{}
	switch kind {
	case "mem":
		mc := transport.NewMemCluster(2, platform.Test(), l.counters[:], nil)
		l.a, l.b = mc.Endpoint(0), mc.Endpoint(1)
		l.closeAll = func() error { mc.Close(); return nil }
	case "udp":
		addrs, err := transport.FreeLocalAddrs(2)
		if err != nil {
			return nil, err
		}
		a, err := transport.NewUDPEndpoint(0, addrs, l.counters[0])
		if err != nil {
			return nil, err
		}
		b, err := transport.NewUDPEndpoint(1, addrs, l.counters[1])
		if err != nil {
			return nil, errors.Join(err, a.Close())
		}
		l.a, l.b = a, b
		l.closeAll = func() error { return errors.Join(a.Close(), b.Close()) }
	case "tcp":
		addrs, err := transport.FreeLocalTCPAddrs(2)
		if err != nil {
			return nil, err
		}
		a, err := transport.NewTCPEndpoint(0, addrs, l.counters[0])
		if err != nil {
			return nil, err
		}
		b, err := transport.NewTCPEndpoint(1, addrs, l.counters[1])
		if err != nil {
			return nil, errors.Join(err, a.Close())
		}
		l.a, l.b = a, b
		l.closeAll = func() error { return errors.Join(a.Close(), b.Close()) }
	default:
		return nil, fmt.Errorf("transport cell: unknown kind %q", kind)
	}
	l.wg.Add(1)
	go l.serve()
	return l, nil
}

// serve is rank 1: it answers pings and reports each full burst of
// one-way messages. It ends when the endpoint is closed.
func (l *link) serve() {
	defer l.wg.Done()
	seen := 0
	for {
		m, ok := l.b.Recv()
		if !ok {
			return
		}
		if m.Type == pingType {
			if err := l.b.Send(wire.Message{Type: pongType, To: 0, ReqID: m.ReqID, Payload: m.Payload}); err != nil {
				l.fail(err)
				return
			}
			continue
		}
		seen++
		l.mu.Lock()
		full := seen == l.burst
		l.mu.Unlock()
		if full {
			seen = 0
			l.received <- struct{}{}
		}
	}
}

func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// close shuts both endpoints and waits for the service loop.
func (l *link) close() error {
	err := l.closeAll()
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(err, l.err)
}

// rttUS returns the median round trip of a payload-byte ping.
func (l *link) rttUS(payload, pings int) (float64, error) {
	msg := wire.Message{Type: pingType, To: 1, Payload: make([]byte, payload)}
	lat := make([]int64, 0, pings)
	for i := 0; i < pings+pings/10; i++ {
		t0 := time.Now()
		msg.ReqID = uint64(i + 1)
		if err := l.a.Send(msg); err != nil {
			return 0, err
		}
		if _, ok := l.a.Recv(); !ok {
			return 0, errors.New("transport cell: endpoint closed during ping")
		}
		if i >= pings/10 { // the first tenth warms the path up
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	return float64(percentile(sortedCopy(lat), 0.5)) / 1e3, nil
}

// oneWayNS sends count payload-byte messages and returns the median,
// over cellBatches bursts, of the time until rank 1 has them all.
func (l *link) oneWayNS(payload, count int) (float64, error) {
	msg := wire.Message{Type: streamType, To: 1, Payload: make([]byte, payload)}
	l.mu.Lock()
	l.burst = count
	l.mu.Unlock()
	var sendErr error
	ns := medianNS(func() {
		for i := 0; i < count; i++ {
			if err := l.a.Send(msg); err != nil {
				sendErr = err
				return
			}
		}
		<-l.received
	})
	return ns, sendErr
}

func transportCells(out cells, sz sizes, _ string) error {
	for _, kind := range []string{"mem", "udp", "tcp"} {
		l, err := newLink(kind)
		if err != nil {
			return err
		}
		measure := func() error {
			rtt, err := l.rttUS(256, sz.ops(1000))
			if err != nil {
				return err
			}
			out["transport."+kind+".rtt_us_p50"] = rtt
			small := sz.ops(5000)
			ns, err := l.oneWayNS(256, small)
			if err != nil {
				return err
			}
			out["transport."+kind+".msgs_per_s"] = float64(small) / (ns / 1e9)
			const largeBytes = 256 << 10
			large := sz.ops(16)
			before := l.counters[0].Snap()
			if ns, err = l.oneWayNS(largeBytes, large); err != nil {
				return err
			}
			out["transport."+kind+".stream_MBps"] = mbps(large*largeBytes, ns)
			if kind == "udp" {
				d := l.counters[0].Snap().Sub(before)
				out["transport.udp.stream_retrans_share"] = float64(d.FragsRetrans) / float64(max(d.FragsSent, 1))
			}
			return nil
		}
		if err := errors.Join(measure(), l.close()); err != nil {
			return fmt.Errorf("transport cell %s: %w", kind, err)
		}
	}

	// Coalescing: Defer a barrier round's burst of small messages to one
	// peer, then Flush it as one batch.
	l, err := newLink("mem")
	if err != nil {
		return err
	}
	be := transport.NewBatching(l.a, l.counters[0], nil)
	const burst = 16
	rounds := sz.ops(2000)
	msg := wire.Message{Type: streamType, To: 1, Payload: make([]byte, 64)}
	var cellErr error
	out["transport.coalesce_ns_per_msg"] = medianNS(func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				if err := be.Defer(msg); err != nil {
					cellErr = err
				}
			}
			if err := be.Flush(); err != nil {
				cellErr = err
			}
		}
	}) / float64(rounds*burst)
	return errors.Join(cellErr, l.close())
}
