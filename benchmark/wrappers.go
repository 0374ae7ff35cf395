package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"proxystore/internal/connector"
	"proxystore/internal/faas"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
)

// --- connector ---------------------------------------------------------------

// tracedConnector records one span per connector call, as a child of the
// proxy or store call whose context it receives.
type tracedConnector struct {
	connector.Connector
	rec  *recorder
	spin float64
}

func (t *tracedConnector) Put(ctx context.Context, data []byte) (connector.Key, error) {
	ctx, s := t.rec.start(ctx, "connector.put")
	defer t.rec.end(s, t.spin)
	return t.Connector.Put(ctx, data)
}

func (t *tracedConnector) Get(ctx context.Context, key connector.Key) ([]byte, error) {
	ctx, s := t.rec.start(ctx, "connector.get")
	defer t.rec.end(s, t.spin)
	return t.Connector.Get(ctx, key)
}

func (t *tracedConnector) Exists(ctx context.Context, key connector.Key) (bool, error) {
	ctx, s := t.rec.start(ctx, "connector.exists")
	defer t.rec.end(s, t.spin)
	return t.Connector.Exists(ctx, key)
}

func (t *tracedConnector) Evict(ctx context.Context, key connector.Key) error {
	ctx, s := t.rec.start(ctx, "connector.evict")
	defer t.rec.end(s, t.spin)
	return t.Connector.Evict(ctx, key)
}

// tracedStreamer adds the streaming surface, for connectors that have it.
type tracedStreamer struct {
	*tracedConnector
	sp connector.StreamPutter
	sg connector.StreamGetter
}

func (t *tracedStreamer) PutFrom(ctx context.Context, r io.Reader) (connector.Key, error) {
	ctx, s := t.rec.start(ctx, "connector.put")
	defer t.rec.end(s, t.spin)
	return t.sp.PutFrom(ctx, r)
}

func (t *tracedStreamer) GetTo(ctx context.Context, key connector.Key, w io.Writer) error {
	ctx, s := t.rec.start(ctx, "connector.get")
	defer t.rec.end(s, t.spin)
	return t.sg.GetTo(ctx, key, w)
}

// tracedBatcher adds the batch surface on top of the streaming one.
type tracedBatcher struct {
	*tracedStreamer
	bp connector.BatchPutter
	bg connector.BatchGetter
}

func (t *tracedBatcher) PutBatch(ctx context.Context, data [][]byte) ([]connector.Key, error) {
	ctx, s := t.rec.start(ctx, "connector.put")
	defer t.rec.end(s, t.spin)
	return t.bp.PutBatch(ctx, data)
}

func (t *tracedBatcher) GetBatch(ctx context.Context, keys []connector.Key) ([][]byte, error) {
	ctx, s := t.rec.start(ctx, "connector.get")
	defer t.rec.end(s, t.spin)
	return t.bg.GetBatch(ctx, keys)
}

// optionalSurface lists which of the connector package's optional
// interfaces c implements, in a fixed order.
func optionalSurface(c connector.Connector) [6]bool {
	_, sp := c.(connector.StreamPutter)
	_, sg := c.(connector.StreamGetter)
	_, bp := c.(connector.BatchPutter)
	_, bg := c.(connector.BatchGetter)
	_, tp := c.(connector.TaggedPutter)
	_, tsp := c.(connector.TaggedStreamPutter)
	return [6]bool{sp, sg, bp, bg, tp, tsp}
}

// traceConnector wraps c in the wrapper that exposes exactly c's optional
// interfaces: Store picks its put and get paths by type assertion, so a
// wrapper with more or fewer of them would measure a path the untraced run
// never takes. Shapes no benchmark connector has are refused, not guessed.
func traceConnector(c connector.Connector, rec *recorder, spin float64) (connector.Connector, error) {
	base := &tracedConnector{Connector: c, rec: rec, spin: spin}
	switch optionalSurface(c) {
	case [6]bool{}:
		return base, nil
	case [6]bool{true, true}:
		return &tracedStreamer{base, c.(connector.StreamPutter), c.(connector.StreamGetter)}, nil
	case [6]bool{true, true, true, true}:
		st := &tracedStreamer{base, c.(connector.StreamPutter), c.(connector.StreamGetter)}
		return &tracedBatcher{st, c.(connector.BatchPutter), c.(connector.BatchGetter)}, nil
	}
	return nil, fmt.Errorf("no traced wrapper for the optional interfaces of connector %q", c.Type())
}

// --- kv client under the broker ---------------------------------------------

// kvTap times every command a broker handle issues (kvstore.NewTap under
// pstream.WithKVWrap). The tap interface carries no context, so these spans
// have no parent; the broker's self time is taken at the level of sums, its
// call time minus its handle's kv time.
type kvTap struct {
	rec  *recorder
	spin float64

	cmds      atomic.Uint64 // commands, a pipeline counting each it carries
	casIssued atomic.Uint64
	casWon    atomic.Uint64
}

func (t *kvTap) wrap(kv kvstore.KV) kvstore.KV { return kvstore.NewTap(kv, t.tap) }

func (t *kvTap) tap(name string, args [][]byte, blocking bool) kvstore.TapDone {
	// A parked wait is idle time: it gets a prefix of its own, and is not
	// work to slow down.
	prefix, spin := "kv.", t.spin
	if blocking {
		prefix, spin = "kvwait.", 0
	}
	s := &span{Name: prefix + name, Op: -1, Start: t.rec.now()}
	return func(reply [][]byte, _ error) {
		t.rec.end(s, spin)
		t.count(name, args, reply)
	}
}

// count tallies commands and CAS outcomes, looking inside pipelines (whose
// args are [ncmds, then per command: name, nargs, args...] and whose reply
// holds one encoded value per command).
func (t *kvTap) count(name string, args, reply [][]byte) {
	if name != "PIPELINE" {
		t.cmds.Add(1)
		if name == "CAS" {
			t.cas(reply, 0)
		}
		return
	}
	if len(args) == 0 {
		return
	}
	n, _ := strconv.Atoi(string(args[0]))
	t.cmds.Add(uint64(n))
	ai, ri := 1, 0
	for c := 0; c < n && ai+1 < len(args); c++ {
		nargs, _ := strconv.Atoi(string(args[ai+1]))
		if string(args[ai]) == "CAS" {
			t.cas(reply, ri)
		}
		ai += 2 + nargs
		ri = skipReply(reply, ri)
	}
}

func (t *kvTap) cas(reply [][]byte, i int) {
	t.casIssued.Add(1)
	if i < len(reply) && string(reply[i]) == "i1" {
		t.casWon.Add(1)
	}
}

// skipReply returns the index after the encoded value starting at reply[i]
// (kvstore's normalized reply grammar: "b" is followed by its payload,
// "a<n>" by n values, everything else is one element).
func skipReply(reply [][]byte, i int) int {
	if i >= len(reply) || len(reply[i]) == 0 {
		return i + 1
	}
	switch reply[i][0] {
	case 'b':
		return i + 2
	case 'a':
		n, _ := strconv.Atoi(string(reply[i][1:]))
		i++
		for ; n > 0; n-- {
			i = skipReply(reply, i)
		}
		return i
	}
	return i + 1
}

// --- broker -------------------------------------------------------------------

// opAttr is the event attribute carrying the benchmark's operation number.
const opAttr = "op"

// tracedBroker records a span per broker call. It publishes through one
// broker handle and subscribes through another, each with its own kvTap,
// so the kv commands a publish costs are counted apart from those a
// delivery costs; both handles talk to the same server, as a producer and
// a consumer process would.
type tracedBroker struct {
	pub, sub       pstream.Broker
	pubTap, subTap *kvTap
	rec            *recorder
	spin           float64

	publishes  atomic.Uint64
	delivered  atomic.Uint64
	eventBytes atomic.Uint64 // encoded size of the first eventSamples events
	eventsSeen atomic.Uint64
}

// eventSamples bounds how many published events are re-encoded to measure
// their size; the size depends on the workload, not on the event.
const eventSamples = 128

func newTracedBroker(addr string, rec *recorder, inj injection) *tracedBroker {
	t := &tracedBroker{
		pubTap: &kvTap{rec: rec, spin: inj.kv},
		subTap: &kvTap{rec: rec, spin: inj.kv},
		rec:    rec,
		spin:   inj.broker,
	}
	t.pub = pstream.NewKV(addr, pstream.WithKVWrap(t.pubTap.wrap))
	t.sub = pstream.NewKV(addr, pstream.WithKVWrap(t.subTap.wrap))
	return t
}

// Unwrap lets pstream.AsKV reach the subscribing handle, which owns the
// consumer offsets the task plane cleans up on close.
func (t *tracedBroker) Unwrap() pstream.Broker { return t.sub }

// flowOf names the event across its publish and its delivery: by the
// benchmark's own operation attribute, or by the task plane's task ID.
func flowOf(topic string, ev pstream.Event) uint64 {
	if v := ev.Attr(opAttr); v != "" {
		return flowHash(topic, v)
	}
	if v := ev.Attr(faas.AttrTaskID); v != "" {
		return flowHash(topic, v)
	}
	return 0
}

func (t *tracedBroker) Publish(ctx context.Context, topic string, ev pstream.Event) error {
	if t.eventsSeen.Add(1) <= eventSamples {
		if data, err := pstream.EncodeEvent(ev); err == nil {
			t.eventBytes.Add(uint64(len(data)))
		}
	}
	ctx, s := t.rec.start(ctx, "broker.publish")
	s.Flow = flowOf(topic, ev)
	defer t.rec.end(s, t.spin)
	t.publishes.Add(1)
	return t.pub.Publish(ctx, topic, ev)
}

func (t *tracedBroker) PublishBatch(ctx context.Context, topic string, evs []pstream.Event) error {
	ctx, s := t.rec.start(ctx, "broker.publish")
	defer t.rec.end(s, t.spin)
	t.publishes.Add(uint64(len(evs)))
	return t.pub.PublishBatch(ctx, topic, evs)
}

func (t *tracedBroker) Subscribe(ctx context.Context, topic, consumer string) (pstream.Subscription, error) {
	sub, err := t.sub.Subscribe(ctx, topic, consumer)
	if err != nil {
		return nil, err
	}
	return &tracedSub{Subscription: sub, t: t, topic: topic}, nil
}

func (t *tracedBroker) SubscribeGroup(ctx context.Context, topic, group, member string) (pstream.Subscription, error) {
	sub, err := t.sub.SubscribeGroup(ctx, topic, group, member)
	if err != nil {
		return nil, err
	}
	return &tracedSub{Subscription: sub, t: t, topic: topic}, nil
}

func (t *tracedBroker) Close() error {
	err := t.pub.Close()
	if serr := t.sub.Close(); err == nil {
		err = serr
	}
	return err
}

type tracedSub struct {
	pstream.Subscription
	t     *tracedBroker
	topic string
}

// Next is not slowed by -inject broker: most of its time is the park
// waiting for an event, which is idle, not work.
func (s *tracedSub) Next(ctx context.Context) (pstream.Event, error) {
	ctx, sp := s.t.rec.start(ctx, "broker.next")
	ev, err := s.Subscription.Next(ctx)
	if err == nil {
		sp.Flow = flowOf(s.topic, ev)
		s.t.delivered.Add(1)
	}
	s.t.rec.end(sp, 0)
	return ev, err
}

func (s *tracedSub) Poll(ctx context.Context) (pstream.Event, bool, error) {
	ctx, sp := s.t.rec.start(ctx, "broker.poll")
	ev, ok, err := s.Subscription.Poll(ctx)
	if err == nil && ok {
		sp.Flow = flowOf(s.topic, ev)
		s.t.delivered.Add(1)
	}
	s.t.rec.end(sp, s.t.spin)
	return ev, ok, err
}

func (s *tracedSub) Ack(ctx context.Context, ev pstream.Event) (int, error) {
	ctx, sp := s.t.rec.start(ctx, "broker.ack")
	defer s.t.rec.end(sp, s.t.spin)
	return s.Subscription.Ack(ctx, ev)
}

// injection is the attribution self-check: the named wrapper busy-spins
// this fraction of each call's measured time.
type injection struct{ connector, broker, kv float64 }

func parseInjection(s string) (injection, error) {
	var inj injection
	if s == "" {
		return inj, nil
	}
	layer, val, ok := strings.Cut(s, "=")
	frac, err := strconv.ParseFloat(val, 64)
	if ok && err == nil && frac >= 0 {
		switch layer {
		case "connector":
			inj.connector = frac
		case "broker":
			inj.broker = frac
		case "kv":
			inj.kv = frac
		default:
			return inj, fmt.Errorf("-inject: unknown layer %q (connector, broker or kv)", layer)
		}
		return inj, nil
	}
	return inj, fmt.Errorf("-inject wants <connector|broker|kv>=<fraction>, got %q", s)
}
