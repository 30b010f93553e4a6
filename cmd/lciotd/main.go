// Command lciotd runs one lciot middleware node (an administrative domain)
// from a JSON configuration: it registers the declared schemas and
// components, loads policy, establishes the configured channels, serves
// federation links on TCP, and on shutdown (SIGINT/SIGTERM) exports the
// audit log for offline verification with auditview.
//
// Usage:
//
//	lciotd -config node.json [-data-dir DIR] [-pump comp.endpoint=HZ]
//	       [-listen HOST:PORT] [-peer HOST:PORT ...] [-sweep-every DUR]
//	       [-faults SPEC] [-metrics-addr HOST:PORT] [-trace-sample N]
//
// Two daemons federate over real TCP: one listens (-listen or "listen" in
// the configuration), the other dials it (-peer or "peers"). Peer links
// speak link protocol v5 (binary framed, batched) and self-heal: if the
// peer dies, the dialing side reconnects with exponential backoff and
// resumes the session — re-establishing every cross-node channel through
// the peer's ingress re-validation — and the daemon logs each link state
// transition. Channels whose "dst" names a peer bus ("peerdomain:comp.ep")
// are established after the links come up.
//
// With -data-dir (or "data_dir" in the configuration) the audit trail is
// durable: records are group-committed to a segmented hash-chained store
// under DIR/audit, and on boot the store is recovered — torn tail
// truncated, chain verified — and the in-memory log resumes the persisted
// chain, so a crash (even SIGKILL) loses at most the uncommitted tail.
// Inspect or verify the directory offline with "auditview verify DIR".
//
// -pump publishes synthetic messages on a configured source endpoint at
// the given rate — a self-contained ingest driver for soak and
// crash-recovery testing (the CI kill test uses it).
//
// -faults arms deterministic failpoints for chaos drills ("name=mode(args)"
// specs separated by ';', e.g. "store.wal.fsync=everyN(10,eio)"): the daemon
// then exercises its degradation ladder — a WAL failure flips the audit
// store to degraded in-memory buffering instead of wedging ingest — and
// every subsystem health transition (ok/degraded/failed) is logged. The
// periodic status line reports the overload counters (bus handoff
// overflows, per-link send-queue depth and high-water) so an operator can
// see pressure building before a rung drops.
//
// -metrics-addr starts the operator surface: an HTTP listener serving
// /metrics (Prometheus text), /healthz (the degradation ladder as JSON;
// 503 once any subsystem has failed), /traces (recent sampled flow traces
// as JSON) and net/http/pprof under /debug/pprof/. Telemetry recording is
// enabled at boot either way — the flag only controls the listener.
// -trace-sample N samples one publish in N into an end-to-end flow trace
// whose stage clock attributes its latency to pipeline edges (the
// stage_*_ns histograms and the /lanes link rows); 0, the default,
// disables head sampling, and denials and degradations are always traced.
//
// Obligation clauses in the policy file (retention, erasure, residency,
// purpose) are compiled on load; "jurisdiction" declares where the node
// resides (sent to federation peers for residency enforcement), and
// "sweep_every"/-sweep-every runs the retention sweep on a cadence. On
// boot, outstanding retention deadlines are rescheduled from the durable
// store, so an interrupted sweep resumes from the WAL. Verify erasure
// offline with "auditview retention DIR <tag> <age>".
//
// A minimal configuration:
//
//	{
//	  "domain": "hospital",
//	  "listen": "127.0.0.1:7000",
//	  "policy_file": "hospital.lcp",
//	  "audit_export": "audit.json",
//	  "schemas": [
//	    {"name": "vitals", "fields": [
//	      {"name": "patient", "type": "string", "required": true},
//	      {"name": "heart-rate", "type": "float", "required": true}]}
//	  ],
//	  "components": [
//	    {"name": "sensor", "principal": "hospital",
//	     "secrecy": ["medical","ann"], "integrity": [],
//	     "endpoints": [{"name": "out", "dir": "source", "schema": "vitals"}]},
//	    {"name": "analyser", "principal": "hospital",
//	     "secrecy": ["medical","ann"], "integrity": [], "log_deliveries": true,
//	     "endpoints": [{"name": "in", "dir": "sink", "schema": "vitals"}]}
//	  ],
//	  "channels": [{"src": "sensor.out", "dst": "analyser.in"}]
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lciot"
	"lciot/internal/audit"
)

// config is the lciotd configuration file schema.
type config struct {
	Domain      string   `json:"domain"`
	Listen      string   `json:"listen,omitempty"`
	Peers       []string `json:"peers,omitempty"`
	PolicyFile  string   `json:"policy_file,omitempty"`
	AuditExport string   `json:"audit_export,omitempty"`
	DataDir     string   `json:"data_dir,omitempty"`
	// Jurisdiction declares where this node resides; it travels in the
	// federation hello so peers can enforce residency obligations before
	// data leaves a region.
	Jurisdiction []string `json:"jurisdiction,omitempty"`
	// SweepEvery is the obligation sweep cadence as a Go duration string
	// ("1s", "30s"); empty disables the background sweep loop (Tick-style
	// callers may still sweep manually).
	SweepEvery string `json:"sweep_every,omitempty"`
	// Shards partitions the bus's routing and dispatch across that many
	// shards (see the README scaling guide). 0 or 1 keeps the classic
	// single-shard bus.
	Shards int `json:"shards,omitempty"`
	// MetricsAddr starts the operator HTTP surface (/metrics, /healthz,
	// /traces, pprof) on this address; empty disables the listener.
	MetricsAddr string `json:"metrics_addr,omitempty"`
	// TraceSample samples one publish in N into a flow trace whose stage
	// clock attributes its latency to pipeline edges (the stage_*_ns
	// histograms and the /lanes link rows); 0 disables head sampling
	// (error spans still record).
	TraceSample int               `json:"trace_sample,omitempty"`
	Schemas     []schemaConfig    `json:"schemas"`
	Components  []componentConfig `json:"components"`
	Channels    []channelConfig   `json:"channels"`
}

type schemaConfig struct {
	Name   string        `json:"name"`
	Fields []fieldConfig `json:"fields"`
}

type fieldConfig struct {
	Name     string   `json:"name"`
	Type     string   `json:"type"` // string, float, int, bool, bytes
	Required bool     `json:"required,omitempty"`
	Secrecy  []string `json:"secrecy,omitempty"` // message-layer tags
}

type componentConfig struct {
	Name      string   `json:"name"`
	Principal string   `json:"principal"`
	Secrecy   []string `json:"secrecy"`
	Integrity []string `json:"integrity"`
	// Jurisdiction and Purposes are the component's declared obligation
	// facets (where it resides, what it processes for); obligated data
	// only flows to components declaring facets within the allowed sets.
	Jurisdiction  []string         `json:"jurisdiction,omitempty"`
	Purposes      []string         `json:"purposes,omitempty"`
	Clearance     []string         `json:"clearance,omitempty"`
	LogDeliveries bool             `json:"log_deliveries,omitempty"`
	Endpoints     []endpointConfig `json:"endpoints"`
}

type endpointConfig struct {
	Name   string `json:"name"`
	Dir    string `json:"dir"` // source or sink
	Schema string `json:"schema"`
}

type channelConfig struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

func main() {
	configPath := flag.String("config", "", "path to node configuration (JSON)")
	dataDir := flag.String("data-dir", "", "durable audit store directory (overrides config data_dir)")
	pump := flag.String("pump", "", "publish synthetic messages: component.endpoint=hz")
	listen := flag.String("listen", "", "federation listen address (overrides config listen)")
	sweepEvery := flag.String("sweep-every", "", "obligation sweep cadence, e.g. 1s (overrides config sweep_every)")
	shards := flag.Int("shards", 0, "bus shard count, 0 = config shards or single-shard (set near the core count on busy multi-core nodes)")
	faults := flag.String("faults", "", "arm deterministic failpoints for a chaos drill: name=mode(args);... (see internal/fault)")
	metricsAddr := flag.String("metrics-addr", "", "operator HTTP surface address: /metrics, /healthz, /traces, /debug/pprof (overrides config metrics_addr)")
	traceSample := flag.Int("trace-sample", 0, "sample one publish in N into a flow trace with stage latency attribution, 0 = off (overrides config trace_sample)")
	var peers peerList
	flag.Var(&peers, "peer", "peer bus address to federate with (repeatable; adds to config peers)")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*configPath, *dataDir, *pump, *listen, *sweepEvery, *faults, *metricsAddr, *shards, *traceSample, peers); err != nil {
		log.Fatal("lciotd: ", err)
	}
}

// peerList collects repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty peer address")
	}
	*p = append(*p, v)
	return nil
}

func run(configPath, dataDir, pump, listen, sweepEvery, faults, metricsAddr string, shards, traceSample int, peers []string) error {
	// Failpoints arm before the domain exists so boot-path points (store
	// recovery, the first WAL writes) are already live.
	if faults != "" {
		if err := lciot.SetFaults(faults); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		for _, p := range lciot.FaultSnapshot() {
			if p.Armed {
				log.Printf("failpoint armed: %s = %s", p.Name, p.Spec)
			}
		}
	}
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse config: %w", err)
	}
	if cfg.Domain == "" {
		return fmt.Errorf("config: domain is required")
	}
	// Relative paths in the configuration resolve against the config
	// file's directory, so lciotd runs the same from any working dir.
	cfgDir := filepath.Dir(configPath)
	resolve := func(p string) string {
		if p == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(cfgDir, p)
	}
	cfg.PolicyFile = resolve(cfg.PolicyFile)
	cfg.AuditExport = resolve(cfg.AuditExport)
	cfg.DataDir = resolve(cfg.DataDir)
	if dataDir != "" {
		cfg.DataDir = dataDir // flag paths are relative to the caller's cwd
	}
	if listen != "" {
		cfg.Listen = listen
	}
	if sweepEvery != "" {
		cfg.SweepEvery = sweepEvery
	}
	if shards != 0 {
		cfg.Shards = shards
	}
	if metricsAddr != "" {
		cfg.MetricsAddr = metricsAddr
	}
	if traceSample != 0 {
		cfg.TraceSample = traceSample
	}
	cfg.Peers = append(cfg.Peers, peers...)

	// Telemetry is compiled into every layer but off by default (one
	// atomic load per instrument); the daemon is the opt-in point.
	lciot.EnableTelemetry()
	lciot.SetTraceSampling(cfg.TraceSample)
	if cfg.TraceSample > 0 {
		log.Printf("flow tracing and stage attribution: sampling 1 in %d publishes", cfg.TraceSample)
	}

	jurisdiction := make([]lciot.Tag, 0, len(cfg.Jurisdiction))
	for _, j := range cfg.Jurisdiction {
		jurisdiction = append(jurisdiction, lciot.Tag(j))
	}
	domain, err := lciot.NewDomain(cfg.Domain, lciot.Options{
		OnAlert:      func(m string) { log.Printf("alert: %s", m) },
		DataDir:      cfg.DataDir,
		Jurisdiction: jurisdiction,
		Shards:       cfg.Shards,
	})
	if err != nil {
		return err
	}
	if n := domain.Bus().NumShards(); n > 1 {
		log.Printf("bus sharded across %d shards (GOMAXPROCS %d)", n, runtime.GOMAXPROCS(0))
		log.Printf("parallel dispatch plane: %d CEP lanes, %d policy index lanes, %d audit staging lanes",
			n, n, n)
	}
	// Error-path safety net; the normal path closes explicitly below so a
	// sticky store I/O error (the only place a WAL write failure
	// surfaces) fails the daemon loudly instead of vanishing in a defer.
	defer domain.Close()
	if st := domain.AuditStore(); st != nil {
		log.Printf("audit store %s: recovered %d records, chain intact, resuming at seq %d",
			cfg.DataDir, st.Len(), st.NextSeq())
	}
	if cfg.MetricsAddr != "" {
		if err := serveMetrics(domain, cfg.MetricsAddr); err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
	}

	schemas, err := buildSchemas(cfg.Schemas)
	if err != nil {
		return err
	}
	// Policy before components: obligation clauses must be compiled when
	// component contexts are built, so obligated tags carry their
	// residency/purpose facets from the first registration. Loading also
	// reschedules retention deadlines from the recovered store, so an
	// interrupted sweep resumes from the WAL.
	if cfg.PolicyFile != "" {
		src, err := os.ReadFile(cfg.PolicyFile)
		if err != nil {
			return err
		}
		if err := domain.LoadPolicy(string(src)); err != nil {
			return err
		}
		log.Printf("policy loaded from %s", cfg.PolicyFile)
		if tab := domain.ObligationTable(); tab != nil {
			log.Printf("obligations: %d tags under management, %d retention deadlines resumed",
				tab.Len(), domain.ObligationBacklog())
		}
	}
	if err := registerComponents(domain, cfg.Components, schemas); err != nil {
		return err
	}
	// Local channels first; channels whose sink names a peer bus
	// ("bus:comp.ep") wait until the links are up.
	var remoteChannels []channelConfig
	for _, ch := range cfg.Channels {
		if strings.Contains(ch.Dst, ":") {
			remoteChannels = append(remoteChannels, ch)
			continue
		}
		if err := domain.Bus().Connect(lciot.PolicyEnginePrincipal, ch.Src, ch.Dst); err != nil {
			return fmt.Errorf("channel %s -> %s: %w", ch.Src, ch.Dst, err)
		}
		log.Printf("channel established: %s -> %s", ch.Src, ch.Dst)
	}

	if cfg.Listen != "" {
		listener, err := lciot.TCP.Listen(cfg.Listen)
		if err != nil {
			return err
		}
		defer listener.Close()
		go domain.Serve(listener)
		log.Printf("domain %q serving federation links on %s", cfg.Domain, listener.Addr())
	} else {
		log.Printf("domain %q running (no listener configured)", cfg.Domain)
	}

	if len(cfg.Peers) > 0 {
		// A daemon should ride out peer restarts measured in minutes, not
		// the default seconds-scale budget.
		domain.Bus().SetLinkConfig(lciot.LinkConfig{RetryBudget: 60})
		for _, addr := range cfg.Peers {
			peer, err := domain.LinkPeer(lciot.TCP, addr, 30*time.Second)
			if err != nil {
				return fmt.Errorf("peer %s: %w", addr, err)
			}
			log.Printf("link to %s: up (bus %q)", addr, peer)
		}
	}
	for _, ch := range remoteChannels {
		// The peer bus may not be linked yet — on a listen-only node the
		// link appears when the peer dials in — so wait for ErrLinkDown to
		// clear instead of failing the boot.
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := domain.Bus().Connect(lciot.PolicyEnginePrincipal, ch.Src, ch.Dst)
			if err == nil {
				log.Printf("cross-bus channel established: %s -> %s", ch.Src, ch.Dst)
				break
			}
			if !errors.Is(err, lciot.ErrLinkDown) || !time.Now().Before(deadline) {
				return fmt.Errorf("channel %s -> %s: %w", ch.Src, ch.Dst, err)
			}
			log.Printf("channel %s -> %s: waiting for link (%v)", ch.Src, ch.Dst, err)
			time.Sleep(500 * time.Millisecond)
		}
	}

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if len(cfg.Peers) > 0 || cfg.Listen != "" {
		go watchLinks(domain, stopWatch)
	}
	go watchHealth(domain, stopWatch)
	go statusLoop(domain, stopWatch)

	if cfg.SweepEvery != "" {
		every, err := time.ParseDuration(cfg.SweepEvery)
		if err != nil {
			return fmt.Errorf("sweep_every: %w", err)
		}
		log.Printf("obligation sweep loop: every %s", every)
		go func() {
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stopWatch:
					return
				case <-t.C:
					if n := domain.SweepObligations(); n > 0 {
						log.Printf("obligation sweep: executed %d (backlog %d)",
							n, domain.ObligationBacklog())
					}
				}
			}
		}()
	}

	stopPump := make(chan struct{})
	if pump != "" {
		if err := startPump(domain, cfg, schemas, pump, stopPump); err != nil {
			return err
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	close(stopPump)

	if cfg.AuditExport != "" {
		data, err := audit.ExportJSON(domain.Log())
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.AuditExport, data, 0o644); err != nil {
			return err
		}
		log.Printf("audit log exported to %s (%d records)", cfg.AuditExport, domain.Log().Len())
	}
	if err := domain.Close(); err != nil {
		return fmt.Errorf("audit store shutdown: %w", err)
	}
	return nil
}

// buildSchemas compiles schema configs.
func buildSchemas(cfgs []schemaConfig) (map[string]*lciot.Schema, error) {
	out := make(map[string]*lciot.Schema, len(cfgs))
	for _, sc := range cfgs {
		fields := make([]lciot.Field, 0, len(sc.Fields))
		for _, fc := range sc.Fields {
			var ft = lciot.TString
			switch fc.Type {
			case "string":
				ft = lciot.TString
			case "float":
				ft = lciot.TFloat
			case "int":
				ft = lciot.TInt
			case "bool":
				ft = lciot.TBool
			case "bytes":
				ft = lciot.TBytes
			default:
				return nil, fmt.Errorf("schema %q field %q: unknown type %q", sc.Name, fc.Name, fc.Type)
			}
			secrecy, err := lciot.NewLabel(toTags(fc.Secrecy)...)
			if err != nil {
				return nil, fmt.Errorf("schema %q field %q: %w", sc.Name, fc.Name, err)
			}
			fields = append(fields, lciot.Field{
				Name: fc.Name, Type: ft, Required: fc.Required, Secrecy: secrecy,
			})
		}
		s, err := lciot.NewSchema(sc.Name, lciot.Label{}, fields...)
		if err != nil {
			return nil, err
		}
		out[sc.Name] = s
	}
	return out, nil
}

// registerComponents registers the configured components on the domain bus.
func registerComponents(domain *lciot.Domain, cfgs []componentConfig, schemas map[string]*lciot.Schema) error {
	for _, cc := range cfgs {
		ctx, err := lciot.NewContext(toTags(cc.Secrecy), toTags(cc.Integrity))
		if err != nil {
			return fmt.Errorf("component %q: %w", cc.Name, err)
		}
		if len(cc.Jurisdiction) > 0 {
			jur, err := lciot.NewLabel(toTags(cc.Jurisdiction)...)
			if err != nil {
				return fmt.Errorf("component %q jurisdiction: %w", cc.Name, err)
			}
			ctx = ctx.WithJurisdiction(jur)
		}
		if len(cc.Purposes) > 0 {
			pur, err := lciot.NewLabel(toTags(cc.Purposes)...)
			if err != nil {
				return fmt.Errorf("component %q purposes: %w", cc.Name, err)
			}
			ctx = ctx.WithPurpose(pur)
		}
		// Obligated tags attach their compiled residency/purpose facets
		// here, at the labelling point — policy is loaded before
		// registration, so the hot path enforces them from the first flow.
		ctx = domain.ApplyObligations(ctx)
		specs := make([]lciot.EndpointSpec, 0, len(cc.Endpoints))
		for _, ec := range cc.Endpoints {
			schema, ok := schemas[ec.Schema]
			if !ok {
				return fmt.Errorf("component %q endpoint %q: unknown schema %q", cc.Name, ec.Name, ec.Schema)
			}
			var dir = lciot.Source
			switch ec.Dir {
			case "source":
				dir = lciot.Source
			case "sink":
				dir = lciot.Sink
			default:
				return fmt.Errorf("component %q endpoint %q: dir must be source or sink", cc.Name, ec.Name)
			}
			specs = append(specs, lciot.EndpointSpec{Name: ec.Name, Dir: dir, Schema: schema})
		}
		var handler lciot.Handler
		if cc.LogDeliveries {
			name := cc.Name
			handler = func(m *lciot.Message, d lciot.Delivery) {
				log.Printf("%s received %s from %s (quenched: %v)", name, m.Type, d.From, d.Quenched)
			}
		}
		comp, err := domain.Bus().Register(cc.Name, lciot.PrincipalID(cc.Principal), ctx, handler, specs...)
		if err != nil {
			return err
		}
		if len(cc.Clearance) > 0 {
			clearance, err := lciot.NewLabel(toTags(cc.Clearance)...)
			if err != nil {
				return fmt.Errorf("component %q clearance: %w", cc.Name, err)
			}
			comp.SetClearance(clearance)
		}
	}
	return nil
}

// watchLinks polls the domain's link table and logs state transitions —
// up, reconnecting, resumed, removed — so an operator (and the CI
// federation smoke test) can follow link health from the daemon's log.
func watchLinks(domain *lciot.Domain, stop <-chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	last := map[string]lciot.LinkStatus{}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		seen := map[string]bool{}
		for _, st := range domain.LinkStatus() {
			seen[st.Peer] = true
			prev, known := last[st.Peer]
			if !known || prev.State != st.State || prev.Reconnects != st.Reconnects {
				log.Printf("link to bus %q: %s (queue %d/%d, high-water %d, resumes %d)",
					st.Peer, st.State, st.QueueDepth, st.QueueCap, st.QueueHighWater, st.Reconnects)
			}
			last[st.Peer] = st
		}
		for peer := range last {
			if !seen[peer] {
				log.Printf("link to bus %q: removed", peer)
				delete(last, peer)
			}
		}
	}
}

// watchHealth polls the domain's degradation ladder and logs every
// subsystem state transition (ok -> degraded -> failed and back), so an
// operator tailing the log sees a WAL failure flip the audit store to
// in-memory buffering the moment it happens — not when ingest wedges.
func watchHealth(domain *lciot.Domain, stop <-chan struct{}) {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	last := map[string]lciot.HealthState{}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, h := range domain.Health() {
			prev, known := last[h.Subsystem]
			switch {
			case !known && h.State != lciot.HealthOK:
				// Already off the ok rung at first sight (e.g. a -faults
				// drill that bites during boot): log it as a finding, not
				// silently as the baseline.
				log.Printf("health: %s %s: %s", h.Subsystem, h.State, h.Detail)
			case known && prev != h.State:
				log.Printf("health: %s %s -> %s: %s", h.Subsystem, prev, h.State, h.Detail)
			}
			last[h.Subsystem] = h.State
		}
	}
}

// statusLoop periodically logs the overload counters an operator needs to
// see pressure building: shard handoff overflows (deliveries falling back
// inline), per-link send-queue depth and high-water, and any subsystem off
// the ok rung. The line is built from the same telemetry registry snapshot
// /metrics serves, so the log and the scrape can never disagree; the
// format is kept grep-stable for the soak harnesses.
func statusLoop(domain *lciot.Domain, stop <-chan struct{}) {
	t := time.NewTicker(10 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		log.Print(statusLine(domain))
	}
}

// statusLine renders one status line from a telemetry registry snapshot.
func statusLine(domain *lciot.Domain) string {
	bus := domain.Bus().Name()
	snap := domain.Metrics().Snapshot()
	var delivered, overflow, shards float64
	var slowStage string
	var slowP99 int64
	type linkStat struct{ depth, qcap, hw float64 }
	links := map[string]*linkStat{}
	linkFor := func(m lciot.Metric) *linkStat {
		peer := m.Label("peer")
		st := links[peer]
		if st == nil {
			st = &linkStat{}
			links[peer] = st
		}
		return st
	}
	for _, m := range snap {
		// The local stage-edge histograms carry no bus label; track the
		// slowest edge by P99 before the bus filter. Link-hop edges are
		// per-bus and pass the filter on their own.
		if strings.HasPrefix(m.Name, "stage_") && m.Hist != nil && m.Hist.Count > 0 &&
			(m.Labels == "" || m.Label("bus") == bus) && m.Hist.P99 > slowP99 {
			slowStage, slowP99 = m.Name, m.Hist.P99
		}
		if m.Label("bus") != bus {
			continue
		}
		switch m.Name {
		case "sbus_shard_delivered_total":
			delivered += m.Value
		case "sbus_shard_overflow_total":
			overflow += m.Value
		case "sbus_shards":
			shards = m.Value
		case "sbus_link_queue_depth":
			linkFor(m).depth = m.Value
		case "sbus_link_queue_cap":
			linkFor(m).qcap = m.Value
		case "sbus_link_queue_highwater":
			linkFor(m).hw = m.Value
		}
	}
	line := fmt.Sprintf("status: bus delivered=%d overflow=%d shards=%d skew=%.2f",
		uint64(delivered), uint64(overflow), int(shards), domain.SkewReport().Imbalance)
	if slowStage != "" {
		line += fmt.Sprintf(" slowest_stage=%s p99=%s", slowStage, time.Duration(slowP99))
	}
	peers := make([]string, 0, len(links))
	for p := range links {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		st := links[p]
		line += fmt.Sprintf("; link %s queue=%d/%d hw=%d", p, int(st.depth), int(st.qcap), uint64(st.hw))
	}
	for _, h := range domain.Health() {
		if h.State != lciot.HealthOK {
			line += fmt.Sprintf("; %s=%s", h.Subsystem, h.State)
		}
	}
	return line
}

// serveMetrics starts the operator HTTP surface: Prometheus metrics, the
// degradation ladder as JSON, recent flow traces, and pprof. It runs on
// its own mux so the pprof registration does not leak onto
// http.DefaultServeMux.
func serveMetrics(domain *lciot.Domain, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := domain.Metrics().WritePrometheus(w); err != nil {
			log.Printf("metrics: write: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type sub struct {
			Subsystem string `json:"subsystem"`
			State     string `json:"state"`
			Detail    string `json:"detail"`
		}
		report := domain.Health()
		worst := lciot.HealthOK
		subs := make([]sub, 0, len(report))
		for _, h := range report {
			if h.State > worst {
				worst = h.State
			}
			subs = append(subs, sub{Subsystem: h.Subsystem, State: h.State.String(), Detail: h.Detail})
		}
		w.Header().Set("Content-Type", "application/json")
		if worst == lciot.HealthFailed {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{
			"state":      worst.String(),
			"subsystems": subs,
			"skew":       domain.SkewReport().Imbalance,
		})
	})
	mux.HandleFunc("/lanes", func(w http.ResponseWriter, r *http.Request) {
		// Per-peer link-hop stage rows from the registry snapshot: one row
		// per federated peer, present from link establishment (count 0
		// until a sampled message crosses).
		type linkRow struct {
			Peer  string `json:"peer"`
			Count uint64 `json:"count"`
			P50Ns int64  `json:"p50_ns"`
			P99Ns int64  `json:"p99_ns"`
			SumNs uint64 `json:"sum_ns"`
		}
		busName := domain.Bus().Name()
		var rows []linkRow
		for _, m := range domain.Metrics().Snapshot() {
			if m.Name != "stage_link_hop_ns" || m.Hist == nil || m.Label("bus") != busName {
				continue
			}
			rows = append(rows, linkRow{
				Peer: m.Label("peer"), Count: m.Hist.Count,
				P50Ns: m.Hist.P50, P99Ns: m.Hist.P99, SumNs: m.Hist.Sum,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"skew":        domain.SkewReport(),
			"stage_links": rows,
		})
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"sample_every": lciot.TraceSampling(),
			"traces":       lciot.FlowTraces(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("metrics: serve: %v", err)
		}
	}()
	log.Printf("operator surface on http://%s (/metrics /healthz /traces /lanes /debug/pprof)", ln.Addr())
	return nil
}

// startPump launches a synthetic publisher on a configured source
// endpoint: a self-contained ingest driver so soak and crash-recovery
// tests need no external client. Messages are synthesised from the
// endpoint's schema (every field populated with a deterministic value).
func startPump(domain *lciot.Domain, cfg config, schemas map[string]*lciot.Schema, spec string, stop <-chan struct{}) error {
	target, rateStr, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("pump: want component.endpoint=hz, got %q", spec)
	}
	hz, err := strconv.Atoi(rateStr)
	if err != nil || hz <= 0 {
		return fmt.Errorf("pump: bad rate %q", rateStr)
	}
	compName, epName, ok := strings.Cut(target, ".")
	if !ok {
		return fmt.Errorf("pump: want component.endpoint=hz, got %q", spec)
	}
	var schema *lciot.Schema
	for _, cc := range cfg.Components {
		if cc.Name != compName {
			continue
		}
		for _, ec := range cc.Endpoints {
			if ec.Name == epName && ec.Dir == "source" {
				schema = schemas[ec.Schema]
			}
		}
	}
	if schema == nil {
		return fmt.Errorf("pump: no configured source endpoint %q", target)
	}
	comp, err := domain.Bus().Component(compName)
	if err != nil {
		return err
	}
	go func() {
		t := time.NewTicker(time.Second / time.Duration(hz))
		defer t.Stop()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if _, err := comp.Publish(epName, syntheticMessage(schema, i)); err != nil {
				log.Printf("pump: publish: %v", err)
			}
		}
	}()
	log.Printf("pump: publishing on %s at %d msg/s", target, hz)
	return nil
}

// syntheticMessage fills every schema field with a deterministic value.
func syntheticMessage(schema *lciot.Schema, i int64) *lciot.Message {
	m := lciot.NewMessage(schema.Name)
	for _, f := range schema.Fields {
		switch f.Type {
		case lciot.TString:
			m.Set(f.Name, lciot.Str(fmt.Sprintf("pump-%d", i)))
		case lciot.TFloat:
			m.Set(f.Name, lciot.Float(float64(i%100)))
		case lciot.TInt:
			m.Set(f.Name, lciot.Int(i))
		case lciot.TBool:
			m.Set(f.Name, lciot.Bool(i%2 == 0))
		case lciot.TBytes:
			m.Set(f.Name, lciot.Bytes([]byte{byte(i)}))
		}
	}
	m.DataID = fmt.Sprintf("pump/%s/%d", schema.Name, i)
	return m
}

func toTags(ss []string) []lciot.Tag {
	out := make([]lciot.Tag, len(ss))
	for i, s := range ss {
		out[i] = lciot.Tag(s)
	}
	return out
}
