package transport

// This file is the real backend's telemetry wiring: the metric
// families it records (when RealConfig.Metrics is set) and the
// wall-clock trace-event emission (when RealConfig.Trace or .Sink is
// set). Both follow the same overhead discipline as the emulator's
// one-bool trace guard: with telemetry off, the hot paths pay exactly
// one nil/bool check; with it on, every handle is pre-resolved so the
// per-message cost is a couple of atomic adds — no map lookups, no
// allocation, no locks.
//
// Metric families (all word counts are converted to bytes at 8 bytes
// per machine word, the Go int width the payloads are built from):
//
//	transport_link_msgs_total{src,dst}          counted messages per directed link
//	transport_link_bytes_total{src,dst}         counted payload bytes per directed link
//	transport_phase_link_msgs_total{phase,src,dst}   the same, split per phase
//	transport_phase_link_bytes_total{phase,src,dst}  (feeds the per-phase PxP matrices)
//	transport_queue_depth                       histogram of SPSC depth observed at enqueue
//	transport_queue_depth_hw{src,dst}           per-queue depth high-water mark
//	transport_parks_total{rank}                 times a receiver parked on the notify channel
//	transport_recvs_total{rank}                 completed receives
//	transport_stash_depth_hw{rank}              high-water mark of tag-mismatch stash entries
//	transport_phase_wall_us{phase}              wall microseconds per phase span
//
// SendFree control messages stay uncounted in msgs/bytes (matching
// Stats.MsgsSent/WordsSent and the sim matrix convention) but do pass
// through the queue-depth meters — they occupy real queue slots.

import (
	"strconv"

	"packunpack/internal/metrics"
	"packunpack/internal/sim"
)

// linkMeter instruments one (src,dst) SPSC queue: enqueue-time depth
// distribution plus the per-queue high-water mark. Attached at machine
// construction, so the queue's put/poll pay one nil check when
// telemetry is off.
type linkMeter struct {
	depthHist *metrics.Histogram
	depthHW   *metrics.Gauge
}

// attachQueueMeters resolves a linkMeter per queue. Called from
// NewReal when a registry is configured.
func (m *RealMachine) attachQueueMeters(reg *metrics.Registry) {
	depthHist := reg.Histogram("transport_queue_depth",
		"SPSC queue depth observed at each enqueue (all links)").With()
	hwVec := reg.Gauge("transport_queue_depth_hw",
		"per-link SPSC queue depth high-water mark", "src", "dst")
	for s, row := range m.queues {
		for d, q := range row {
			q.meter = &linkMeter{
				depthHist: depthHist,
				depthHW:   hwVec.With(strconv.Itoa(s), strconv.Itoa(d)),
			}
		}
	}
}

// procMeters is one processor's pre-resolved metric handles; nil on a
// realProc means telemetry off.
type procMeters struct {
	reg *metrics.Registry

	linkMsgs  []*metrics.Counter // per destination, all-phases totals
	linkBytes []*metrics.Counter
	parks     *metrics.Counter
	recvs     *metrics.Counter
	stashHW   *metrics.Gauge

	phaseWall *metrics.HistogramVec
	// Per-phase link rows, resolved once per phase name (on the first
	// SetPhase into it), so Send stays lookup-free.
	phaseMsgsVec, phaseBytesVec *metrics.CounterVec
	phaseMsgs, phaseBytes       []*metrics.Counter
	phaseRows                   map[string][2][]*metrics.Counter
	phaseStart                  float64 // wall µs of the current phase's start
}

// newProcMeters resolves rank r's handles against reg.
func newProcMeters(reg *metrics.Registry, r, procs int, phase string, now float64) *procMeters {
	mt := &procMeters{
		reg:          reg,
		parks:        reg.Counter("transport_parks_total", "receiver parks on the SPSC notify channel", "rank").With(strconv.Itoa(r)),
		recvs:        reg.Counter("transport_recvs_total", "completed receives", "rank").With(strconv.Itoa(r)),
		stashHW:      reg.Gauge("transport_stash_depth_hw", "high-water mark of tag-mismatched stashed messages", "rank").With(strconv.Itoa(r)),
		phaseWall:    reg.Histogram("transport_phase_wall_us", "wall-clock microseconds per phase span", "phase"),
		phaseMsgsVec: reg.Counter("transport_phase_link_msgs_total", "counted messages per (phase,src,dst)", "phase", "src", "dst"),
		phaseBytesVec: reg.Counter("transport_phase_link_bytes_total",
			"counted payload bytes per (phase,src,dst); 8 bytes per machine word", "phase", "src", "dst"),
		phaseRows:  make(map[string][2][]*metrics.Counter),
		phaseStart: now,
	}
	msgsVec := reg.Counter("transport_link_msgs_total", "counted messages per (src,dst) link", "src", "dst")
	bytesVec := reg.Counter("transport_link_bytes_total",
		"counted payload bytes per (src,dst) link; 8 bytes per machine word", "src", "dst")
	src := strconv.Itoa(r)
	mt.linkMsgs = make([]*metrics.Counter, procs)
	mt.linkBytes = make([]*metrics.Counter, procs)
	for d := 0; d < procs; d++ {
		dst := strconv.Itoa(d)
		mt.linkMsgs[d] = msgsVec.With(src, dst)
		mt.linkBytes[d] = bytesVec.With(src, dst)
	}
	mt.setPhase(r, procs, phase)
	return mt
}

// setPhase switches the pre-resolved per-phase link row (resolving and
// caching it on the phase's first use by this rank).
func (mt *procMeters) setPhase(r, procs int, phase string) {
	if row, ok := mt.phaseRows[phase]; ok {
		mt.phaseMsgs, mt.phaseBytes = row[0], row[1]
		return
	}
	src := strconv.Itoa(r)
	msgs := make([]*metrics.Counter, procs)
	bytes := make([]*metrics.Counter, procs)
	for d := 0; d < procs; d++ {
		dst := strconv.Itoa(d)
		msgs[d] = mt.phaseMsgsVec.With(phase, src, dst)
		bytes[d] = mt.phaseBytesVec.With(phase, src, dst)
	}
	mt.phaseRows[phase] = [2][]*metrics.Counter{msgs, bytes}
	mt.phaseMsgs, mt.phaseBytes = msgs, bytes
}

// noteSend records one counted message on the pre-resolved handles.
// The rank doubles as the counter shard so each producer keeps hitting
// its own cache line.
func (mt *procMeters) noteSend(rank, dst, words int) {
	mt.linkMsgs[dst].AddShard(rank, 1)
	mt.linkBytes[dst].AddShard(rank, int64(words)*8)
	mt.phaseMsgs[dst].AddShard(rank, 1)
	mt.phaseBytes[dst].AddShard(rank, int64(words)*8)
}

// notePhaseEnd observes the wall span of the phase ending now.
func (mt *procMeters) notePhaseEnd(phase string, now float64) {
	mt.phaseWall.With(phase).Observe(int64(now - mt.phaseStart))
	mt.phaseStart = now
}

// --- wall-clock trace events ---

// tracing reports whether this processor records events; cached as a
// bool on realProc so the hot paths pay one load.
func (p *realProc) tracing() bool { return p.tr }

// emit stamps and records one event, mirroring the emulator's emit:
// Seq is per-rank (the real machine has no deterministic global order
// to offer), timestamps are wall-clock microseconds since the run
// started.
func (p *realProc) emit(ev sim.Event) {
	p.seq++
	ev.Seq = p.seq
	ev.Rank = p.rank
	if ev.Phase == "" {
		ev.Phase = p.phase
	}
	if p.m.cfg.Trace {
		p.events = append(p.events, ev)
	}
	if p.m.cfg.Sink != nil {
		p.m.cfg.Sink.Emit(ev)
	}
	if p.m.cfg.Flight != nil {
		p.m.cfg.Flight.Note(ev)
	}
}

// Events returns the wall-clock structured event streams of the most
// recent Run, ordered by rank (nil unless RealConfig.Trace was set).
// The streams use the same sim.Event schema and message-id scheme as
// the emulator, so every exporter in internal/trace consumes them
// unchanged — only the meaning of Time differs (wall microseconds
// since run start, never virtual time; the two units never appear in
// one capture).
func (m *RealMachine) Events() [][]sim.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]sim.Event, len(m.events))
	for i, row := range m.events {
		out[i] = append([]sim.Event(nil), row...)
	}
	return out
}
