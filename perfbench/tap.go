package main

import (
	"context"
	"sync"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// event is one message crossing the tap: a successful Send, or a Recv
// that returned a message. at is the offset from the tap's start.
type event struct {
	at    time.Duration
	recv  bool
	kind  transport.Kind
	from  string
	to    string
	round int
	size  int // payload bytes
	// invite marks a ROUND-INVITE control record.
	invite bool
}

// span is one timed call at the tap's Send/Recv boundary, recorded only
// in traced runs. Parent is the id of the node's role span; role spans
// have parent 0, the run's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// captured is one bulk payload kept for the wire replay check.
type captured struct {
	kind    transport.Kind
	payload []byte
}

// tap is a pass-through transport.Network installed on System.Net. It
// forwards every call unchanged and records a light message log; in
// traced runs it also records spans, and when capture is set it keeps
// the bulk payloads for the replay check.
type tap struct {
	inner   transport.Network
	start   time.Time
	capture bool
	traced  bool
	run     int

	mu       sync.Mutex
	events   []event
	payloads []captured
	spans    []span
	roles    map[string]int // node → role span index
}

func newTap(inner transport.Network, run int, start time.Time, capture, traced bool) *tap {
	return &tap{inner: inner, start: start, capture: capture, traced: traced, run: run,
		roles: make(map[string]int)}
}

// Stats forwards the inner network's traffic counters, which
// System.Run reads through this interface.
func (t *tap) Stats() *transport.Stats {
	if st, ok := t.inner.(interface{ Stats() *transport.Stats }); ok {
		return st.Stats()
	}
	return transport.NewStats()
}

func (t *tap) Send(msg transport.Message) error {
	begin := time.Since(t.start)
	if err := t.inner.Send(msg); err != nil {
		return err
	}
	end := time.Since(t.start)
	invite := false
	if msg.Kind == transport.KindControl {
		rec, err := transport.ParseControl(msg)
		invite = err == nil && rec.Type == wire.ControlRoundInvite
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, event{at: begin, kind: msg.Kind, from: msg.From, to: msg.To,
		round: msg.Round, size: len(msg.Payload), invite: invite})
	if t.capture && bulkKind(msg.Kind) {
		t.payloads = append(t.payloads, captured{kind: msg.Kind, payload: msg.Payload})
	}
	if t.traced {
		t.addSpan("send "+msg.Kind.String(), msg.From, begin, end)
	}
	return nil
}

func (t *tap) Recv(ctx context.Context, node string) (transport.Message, error) {
	begin := time.Since(t.start)
	msg, err := t.inner.Recv(ctx, node)
	end := time.Since(t.start)
	if err != nil {
		if t.traced {
			t.mu.Lock()
			t.addSpan("recv", node, begin, end)
			t.mu.Unlock()
		}
		return msg, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, event{at: end, recv: true, kind: msg.Kind, from: msg.From, to: node,
		round: msg.Round, size: len(msg.Payload)})
	if t.traced {
		t.addSpan("recv "+msg.Kind.String(), node, begin, end)
	}
	return msg, nil
}

// addSpan records one call span under the node's role span, opening
// the role span on the node's first call and stretching it to cover
// every later one. Callers hold t.mu.
func (t *tap) addSpan(name, node string, begin, end time.Duration) {
	if len(t.spans) == 0 {
		t.spans = append(t.spans, span{ID: 0, Run: t.run, Name: "run", Node: "system"})
	}
	ri, ok := t.roles[node]
	if !ok {
		ri = len(t.spans)
		t.roles[node] = ri
		t.spans = append(t.spans, span{ID: ri, Parent: 0, Run: t.run, Name: "role", Node: node,
			Start: int64(begin)})
	}
	if int64(end) > t.spans[ri].End {
		t.spans[ri].End = int64(end)
	}
	if int64(end) > t.spans[0].End {
		t.spans[0].End = int64(end)
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: ri, Run: t.run, Name: name, Node: node,
		Start: int64(begin), End: int64(end)})
}

// log returns the recorded events; call it after Run has returned.
func (t *tap) log() []event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// bulkKind reports whether a kind carries a bulk payload (model
// packages, raw data, importance sets and their deltas), as opposed
// to stats, control and report records.
func bulkKind(k transport.Kind) bool {
	switch k {
	case transport.KindBackbone, transport.KindHeader, transport.KindImportanceSet,
		transport.KindPersonalizedSet, transport.KindRawData, transport.KindProvision,
		transport.KindImportanceDelta, transport.KindImportanceDownDelta:
		return true
	}
	return false
}
