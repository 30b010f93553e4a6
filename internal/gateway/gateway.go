// Package gateway implements the subsystem gateways of Section 2.1: hubs
// that front closed or constrained subsystems and "manage interactions on
// behalf of the subsystems they front". Constrained devices cannot carry
// IFC labels themselves, so the gateway assigns each device's readings a
// security context from its device table at ingress — the delegation of
// policy enforcement that Challenge 5 calls for ("gateway components could
// be used to mediate data flows") — and store-and-forwards when the uplink
// is down (Challenge 6's intermittently-connected things).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"lciot/internal/audit"
	"lciot/internal/device"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/store"
)

// Errors reported by gateways.
var (
	ErrUnknownDevice = errors.New("gateway: device not in table")
	ErrBufferFull    = errors.New("gateway: store-and-forward buffer full")
)

// A DeviceEntry maps a constrained device to the security context its data
// carries and the schema it emits.
type DeviceEntry struct {
	DeviceID string
	Ctx      ifc.SecurityContext
	// Consent records whether the data subject has consented to collection
	// (Concern 1); without it the gateway refuses the device's data.
	Consent bool
}

// ReadingSchema is the message type gateways emit for sensor readings.
var ReadingSchema = msg.MustSchema("reading", ifc.EmptyLabel,
	msg.Field{Name: "device", Type: msg.TString, Required: true},
	msg.Field{Name: "metric", Type: msg.TString, Required: true},
	msg.Field{Name: "value", Type: msg.TFloat, Required: true},
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
)

// A Gateway bridges constrained devices onto a bus. It owns a bus component
// with a "readings" source endpoint; Ingest labels and forwards readings.
type Gateway struct {
	comp *sbus.Component
	log  *audit.Log

	mu      sync.Mutex
	table   map[string]DeviceEntry
	buffer  []pendingReading
	bufMax  int
	uplinkU bool
	// journal, when non-nil, persists the store-and-forward buffer so an
	// outage that outlives the gateway process no longer loses readings.
	journal *store.WAL
}

type pendingReading struct {
	r   device.Reading
	ctx ifc.SecurityContext
	// jseq is the reading's journal sequence number (meaningful only while
	// a journal is enabled); Flush prunes the journal up to the last
	// forwarded reading's jseq.
	jseq uint64
}

// journalEntry is the JSON wire form of one buffered reading. Labels
// travel as their canonical String forms and are re-interned on decode.
// An entry with Erased set is an erasure marker: every earlier journaled
// reading of the device is void, so recovery drops rather than replays it.
type journalEntry struct {
	Device    string  `json:"device"`
	Metric    string  `json:"metric,omitempty"`
	Value     float64 `json:"value,omitempty"`
	AtNano    int64   `json:"at,omitempty"`
	Seq       uint64  `json:"seq,omitempty"`
	Secrecy   string  `json:"secrecy,omitempty"`
	Integrity string  `json:"integrity,omitempty"`
	Erased    bool    `json:"erased,omitempty"`
}

// New registers a gateway component on the bus and returns the gateway.
// bufMax bounds the store-and-forward buffer (0 means 1024).
func New(bus *sbus.Bus, name string, principal ifc.PrincipalID, ctx ifc.SecurityContext, bufMax int) (*Gateway, error) {
	comp, err := bus.Register(name, principal, ctx, nil,
		sbus.EndpointSpec{Name: "readings", Dir: sbus.Source, Schema: ReadingSchema})
	if err != nil {
		return nil, err
	}
	if bufMax <= 0 {
		bufMax = 1024
	}
	return &Gateway{
		comp:    comp,
		log:     bus.Log(),
		table:   make(map[string]DeviceEntry),
		bufMax:  bufMax,
		uplinkU: true,
	}, nil
}

// Component exposes the gateway's bus component (for connecting channels).
func (g *Gateway) Component() *sbus.Component { return g.comp }

// AddDevice installs a device table entry.
func (g *Gateway) AddDevice(e DeviceEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.table[e.DeviceID] = e
}

// RemoveDevice drops a device from the table; subsequent readings are
// refused.
func (g *Gateway) RemoveDevice(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.table, id)
}

// SetUplink marks the gateway's uplink as up or down. While down, ingested
// readings buffer locally; on recovery, Flush forwards them in order.
func (g *Gateway) SetUplink(up bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.uplinkU = up
}

// EnableJournal opens (creating or recovering) a durable journal for the
// store-and-forward buffer in dir. Readings journaled by a previous
// process — buffered when it died — are recovered into the buffer and
// forwarded on the next Flush, so an uplink outage that outlives the
// gateway process no longer loses data (Challenge 6's intermittently
// connected things, made restart-proof). It returns the number of
// readings recovered.
//
// Delivery is at-least-once: the journal is pruned at segment
// granularity after a successful Flush, so a crash between forwarding and
// pruning can re-forward readings on restart. Readings carry stable
// DataIDs (device/metric/seq), so downstream provenance deduplicates.
func (g *Gateway) EnableJournal(dir string) (int, error) {
	w, err := store.Open(dir, store.Options{SegmentBytes: 256 << 10})
	if err != nil {
		return 0, err
	}
	var recovered []pendingReading
	err = w.ReadSeq(0, 0, func(e store.Entry) error {
		var je journalEntry
		if err := json.Unmarshal(e.Payload, &je); err != nil {
			return fmt.Errorf("gateway: journal entry %d: %w", e.Seq, err)
		}
		if je.Erased {
			// Erasure marker: journaled readings of the device up to here
			// are legally gone — drop them instead of replaying them.
			kept := recovered[:0]
			for _, p := range recovered {
				if p.r.DeviceID != je.Device {
					kept = append(kept, p)
				}
			}
			clear(recovered[len(kept):])
			recovered = kept
			return nil
		}
		secrecy, err := ifc.ParseLabel(je.Secrecy)
		if err != nil {
			return fmt.Errorf("gateway: journal entry %d: %w", e.Seq, err)
		}
		integrity, err := ifc.ParseLabel(je.Integrity)
		if err != nil {
			return fmt.Errorf("gateway: journal entry %d: %w", e.Seq, err)
		}
		recovered = append(recovered, pendingReading{
			r: device.Reading{
				DeviceID: je.Device, Metric: je.Metric, Value: je.Value,
				At: time.Unix(0, je.AtNano), Seq: je.Seq,
			},
			ctx:  ifc.SecurityContext{Secrecy: secrecy, Integrity: integrity},
			jseq: e.Seq,
		})
		return nil
	})
	if err != nil {
		w.Close()
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journal != nil {
		w.Close()
		return 0, errors.New("gateway: journal already enabled")
	}
	g.journal = w
	g.buffer = append(recovered, g.buffer...)
	return len(recovered), nil
}

// CloseJournal syncs and closes the journal (no-op without one).
func (g *Gateway) CloseJournal() error {
	g.mu.Lock()
	j := g.journal
	g.journal = nil
	g.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// journalLocked persists one buffered reading; g.mu must be held. The
// Sync makes the reading durable before Ingest returns — buffering only
// happens while the uplink is down, where disk latency is irrelevant.
func (g *Gateway) journalLocked(p *pendingReading) error {
	je := journalEntry{
		Device: p.r.DeviceID, Metric: p.r.Metric, Value: p.r.Value,
		AtNano: p.r.At.UnixNano(), Seq: p.r.Seq,
		Secrecy:   p.ctx.Secrecy.String(),
		Integrity: p.ctx.Integrity.String(),
	}
	payload, err := json.Marshal(je)
	if err != nil {
		return fmt.Errorf("gateway: journal encode: %w", err)
	}
	seq, err := g.journal.Append(p.r.At, payload)
	if err != nil {
		return err
	}
	p.jseq = seq
	return g.journal.Sync()
}

// EraseDevice executes an erasure obligation against the gateway's live
// state: buffered (store-and-forward) readings of the device are dropped,
// and — when a journal is enabled — its journaled readings are redacted
// in place (payloads rewritten to erasure markers, segments rewritten via
// the WAL's batched redaction), so neither a restart nor the journal
// files themselves can resurrect the values. The device table entry is
// untouched: erasure removes collected data, not the enrollment. Returns
// the number of buffered readings dropped.
func (g *Gateway) EraseDevice(deviceID string) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kept := g.buffer[:0]
	dropped := 0
	for _, p := range g.buffer {
		if p.r.DeviceID == deviceID {
			dropped++
			continue
		}
		kept = append(kept, p)
	}
	clear(g.buffer[len(kept):]) // erased readings must not linger in memory
	g.buffer = kept
	redacted := 0
	if g.journal != nil {
		marker, err := json.Marshal(journalEntry{Device: deviceID, Erased: true})
		if err != nil {
			return dropped, fmt.Errorf("gateway: erasure marker: %w", err)
		}
		// Find every journaled reading of the device and rewrite its
		// payload to the marker — recovery then skips it, and the
		// plaintext values are gone from the segment files too.
		var seqs []uint64
		err = g.journal.ReadSeq(0, 0, func(e store.Entry) error {
			var je journalEntry
			if jerr := json.Unmarshal(e.Payload, &je); jerr != nil {
				return fmt.Errorf("gateway: journal entry %d: %w", e.Seq, jerr)
			}
			if je.Device == deviceID && !je.Erased {
				seqs = append(seqs, e.Seq)
			}
			return nil
		})
		if err != nil {
			return dropped, err
		}
		if err := g.journal.RedactMany(seqs, func(uint64, []byte) ([]byte, error) {
			return marker, nil
		}); err != nil {
			return dropped, err
		}
		redacted = len(seqs)
	}
	g.log.AppendAsync(audit.Record{
		Kind: audit.ObligationExecuted, Layer: audit.LayerMessaging,
		Src: ifc.EntityID(deviceID), Dst: g.comp.Entity().ID(),
		Note: fmt.Sprintf("gateway erasure: %d buffered readings dropped, %d journal entries redacted",
			dropped, redacted),
	})
	return dropped, nil
}

// Buffered returns the number of readings waiting for the uplink.
func (g *Gateway) Buffered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.buffer)
}

// Ingest accepts one reading from a constrained device: it looks the device
// up, verifies consent, adopts the device's security context for the
// message, and forwards (or buffers) it. The gateway is the enforcement
// point for devices that cannot enforce anything themselves.
func (g *Gateway) Ingest(r device.Reading) error {
	g.mu.Lock()
	entry, ok := g.table[r.DeviceID]
	up := g.uplinkU
	g.mu.Unlock()

	if !ok {
		g.log.AppendAsync(audit.Record{
			Kind: audit.FlowDenied, Layer: audit.LayerMessaging,
			Src: ifc.EntityID(r.DeviceID), Dst: g.comp.Entity().ID(),
			DataID: r.DataID(), Note: "gateway refused: device not in table",
		})
		return fmt.Errorf("%w: %q", ErrUnknownDevice, r.DeviceID)
	}
	if !entry.Consent {
		g.log.AppendAsync(audit.Record{
			Kind: audit.FlowDenied, Layer: audit.LayerMessaging,
			Src: ifc.EntityID(r.DeviceID), Dst: g.comp.Entity().ID(),
			DataID: r.DataID(), Note: "gateway refused: no consent recorded",
		})
		return fmt.Errorf("gateway: device %q has no recorded consent", r.DeviceID)
	}

	if !up {
		g.mu.Lock()
		defer g.mu.Unlock()
		if len(g.buffer) >= g.bufMax {
			return fmt.Errorf("%w: %d readings", ErrBufferFull, len(g.buffer))
		}
		p := pendingReading{r: r, ctx: entry.Ctx}
		if g.journal != nil {
			if err := g.journalLocked(&p); err != nil {
				return err
			}
		}
		g.buffer = append(g.buffer, p)
		return nil
	}
	return g.forward(r, entry.Ctx)
}

// Flush forwards buffered readings after an uplink recovery, preserving
// order. It stops at the first error, leaving the remainder buffered.
func (g *Gateway) Flush() (int, error) {
	g.mu.Lock()
	pending := g.buffer
	g.buffer = nil
	journal := g.journal
	g.mu.Unlock()

	for i, p := range pending {
		if err := g.forward(p.r, p.ctx); err != nil {
			g.mu.Lock()
			g.buffer = append(pending[i:], g.buffer...)
			g.mu.Unlock()
			return i, err
		}
	}
	if journal != nil && len(pending) > 0 {
		// Everything up to the last forwarded reading is delivered; drop
		// the sealed journal segments covering it. Readings buffered while
		// we were forwarding have higher jseqs and survive.
		if _, err := journal.Prune(pending[len(pending)-1].jseq + 1); err != nil {
			return len(pending), err
		}
	}
	return len(pending), nil
}

// forward adopts the device's context and publishes the reading. The
// gateway component must hold privileges covering the transition between
// device contexts (granted by the domain authority at provisioning).
func (g *Gateway) forward(r device.Reading, ctx ifc.SecurityContext) error {
	if !g.comp.Context().Equal(ctx) {
		if err := g.comp.SetContext(ctx); err != nil {
			return fmt.Errorf("gateway: adopting device context: %w", err)
		}
	}
	m := msg.New("reading").
		Set("device", msg.Str(r.DeviceID)).
		Set("metric", msg.Str(r.Metric)).
		Set("value", msg.Float(r.Value)).
		Set("seq", msg.Int(int64(r.Seq)))
	m.DataID = r.DataID()
	_, err := g.comp.Publish("readings", m)
	return err
}
