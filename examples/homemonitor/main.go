// Command homemonitor reproduces the paper's Section 7 medical
// home-monitoring scenario end to end (Figs. 4-7):
//
//   - Ann's hospital-issued device streams vitals to her hospital data
//     analyser; Zeb's non-standard device cannot reach his analyser
//     directly (Fig. 4) and is bridged by the Device Input Sanitiser, an
//     endorser (Fig. 5).
//   - The Statistics Generator declassifies patient data into anonymised
//     ward statistics readable by the ward manager, who can never see raw
//     records (Fig. 6).
//   - The analyser detects a medical emergency; policy alerts the
//     emergency team, actuates the sensor to sample faster, and opens an
//     audited break-glass window that auto-reverts (Fig. 7).
//
// Run with:
//
//	go run ./examples/homemonitor
package main

import (
	"fmt"
	"log"

	"lciot"
)

// Security contexts from the paper's figures.
var (
	annCtx = lciot.MustContext(
		[]lciot.Tag{"medical", "ann"}, []lciot.Tag{"hosp-dev", "consent"})
	zebRawCtx = lciot.MustContext(
		[]lciot.Tag{"medical", "zeb"}, []lciot.Tag{"zeb-dev", "consent"})
	zebCleanCtx = lciot.MustContext(
		[]lciot.Tag{"medical", "zeb"}, []lciot.Tag{"hosp-dev", "consent"})
	statsCtx = lciot.MustContext(
		[]lciot.Tag{"medical", "stats"}, []lciot.Tag{"anon"})
)

var vitals = lciot.MustSchema("vitals", lciot.Label{},
	lciot.Field{Name: "patient", Type: lciot.TString, Required: true},
	lciot.Field{Name: "heart-rate", Type: lciot.TFloat, Required: true},
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	domain, err := lciot.NewDomain("hospital", lciot.Options{
		OnAlert: func(msg string) { fmt.Println("ALERT:", msg) },
	})
	if err != nil {
		return err
	}
	bus := domain.Bus()

	// --- Fig. 4: devices and analysers ---
	if _, err := bus.Register("ann-device", "hospital", annCtx, nil,
		lciot.EndpointSpec{Name: "out", Dir: lciot.Source, Schema: vitals}); err != nil {
		return err
	}
	if _, err := bus.Register("zeb-device", "zeb", zebRawCtx, nil,
		lciot.EndpointSpec{Name: "out", Dir: lciot.Source, Schema: vitals}); err != nil {
		return err
	}
	annAnalyser, err := registerAnalyser(domain, "ann-analyser", annCtx)
	if err != nil {
		return err
	}
	_ = annAnalyser
	if _, err = registerAnalyser(domain, "zeb-analyser", zebCleanCtx); err != nil {
		return err
	}

	if err := bus.Connect(lciot.PolicyEnginePrincipal, "ann-device.out", "ann-analyser.in"); err != nil {
		return err
	}
	// Zeb's raw device fails both halves of the flow rule against Ann's
	// analyser, and fails integrity against his own (needs hosp-dev).
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "zeb-device.out", "ann-analyser.in"); err != nil {
		fmt.Println("Fig 4 — illegal flow prevented:", err)
	}
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "zeb-device.out", "zeb-analyser.in"); err != nil {
		fmt.Println("Fig 5 — raw device refused, sanitiser required:", err)
	}

	// --- Fig. 5: the Device Input Sanitiser (an endorser) ---
	sanitiser, err := bus.Register("sanitiser", "hospital", zebRawCtx,
		nil, // no handler: the endorsement below is a context change
		lciot.EndpointSpec{Name: "in", Dir: lciot.Sink, Schema: vitals},
		lciot.EndpointSpec{Name: "out", Dir: lciot.Source, Schema: vitals})
	if err != nil {
		return err
	}
	// The hospital grants exactly the privileges the endorsement needs.
	if err := sanitiser.Entity().GrantPrivileges(lciot.Privileges{
		AddIntegrity:    lciot.MustLabel("hosp-dev"),
		RemoveIntegrity: lciot.MustLabel("zeb-dev"),
	}); err != nil {
		return err
	}
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "zeb-device.out", "sanitiser.in"); err != nil {
		return err
	}
	// The sanitiser endorses: change context, connect onward, forward.
	if err := sanitiser.SetContext(zebCleanCtx); err != nil {
		return err
	}
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "sanitiser.out", "zeb-analyser.in"); err != nil {
		return err
	}
	fmt.Println("Fig 5 — sanitiser endorsed into", sanitiser.Context())

	// --- Fig. 6: the Statistics Generator (a declassifier) ---
	merged := lciot.MergeContexts(annCtx, zebCleanCtx)
	stats, err := bus.Register("stats-generator", "hospital", merged, nil,
		lciot.EndpointSpec{Name: "in", Dir: lciot.Sink, Schema: vitals},
		lciot.EndpointSpec{Name: "out", Dir: lciot.Source, Schema: vitals})
	if err != nil {
		return err
	}
	if _, err := bus.Register("ward-manager", "hospital", statsCtx,
		func(m *lciot.Message, _ lciot.Delivery) {
			hr, _ := m.Get("heart-rate")
			fmt.Printf("Fig 6 — ward manager sees anonymised mean %.1f\n", hr.Float)
		},
		lciot.EndpointSpec{Name: "in", Dir: lciot.Sink, Schema: vitals}); err != nil {
		return err
	}
	// Raw patient data cannot reach management.
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "ann-device.out", "ward-manager.in"); err != nil {
		fmt.Println("Fig 6 — raw data to management prevented:", err)
	}
	// The generator holds the declassification privileges and crosses.
	if err := stats.Entity().GrantPrivileges(lciot.Privileges{
		AddSecrecy:      lciot.MustLabel("stats"),
		RemoveSecrecy:   lciot.MustLabel("ann", "zeb"),
		AddIntegrity:    lciot.MustLabel("anon"),
		RemoveIntegrity: lciot.MustLabel("hosp-dev", "consent"),
	}); err != nil {
		return err
	}
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "ann-device.out", "stats-generator.in"); err != nil {
		return err
	}
	if err := stats.SetContext(statsCtx); err != nil {
		return err
	}
	if err := bus.Connect(lciot.PolicyEnginePrincipal, "stats-generator.out", "ward-manager.in"); err != nil {
		return err
	}
	anonMean := lciot.NewMessage("vitals").
		Set("patient", lciot.Str("<anonymised>")).
		Set("heart-rate", lciot.Float(71.4))
	if _, err := stats.Publish("out", anonMean); err != nil {
		return err
	}

	// --- Fig. 7: emergency detection, actuation, break-glass ---
	if err := setupEmergency(domain); err != nil {
		return err
	}
	// Stream Ann's vitals with a scripted emergency episode.
	annDevice, err := bus.Component("ann-device")
	if err != nil {
		return err
	}
	sensor := newAnnSensor()
	for i := 0; i < 45; i++ {
		r := sensor.Next()
		m := lciot.NewMessage("vitals").
			Set("patient", lciot.Str("ann")).
			Set("heart-rate", lciot.Float(r.Value))
		m.DataID = r.DataID()
		if _, err := annDevice.Publish("out", m); err != nil {
			return err
		}
		domain.FeedEvent(lciot.Event{Type: "heart-rate", Source: "ann-device", Time: r.At, Value: r.Value})
	}
	if rule, active := domain.PolicyEngine().OverrideActive(); active {
		fmt.Printf("Fig 7 — break-glass override open (rule %q)\n", rule)
	}

	// --- Audit: the compliance evidence (Section 8.3) ---
	rep := lciot.Report(domain.Log())
	fmt.Printf("audit: %d records, chain intact: %v, denials: %d, break-glass: %d\n",
		rep.Total, rep.ChainIntact, len(rep.Denials), len(rep.BreakGlass))
	graph := lciot.BuildProvenance(domain.Log().Select(nil))
	nodes, edges := graph.Len()
	fmt.Printf("provenance graph: %d nodes, %d edges\n", nodes, edges)

	// --- §3/§7: the obligations engine — GDPR-style lifecycle duties ---
	return gdprScenario(domain)
}

// registerAnalyser creates a patient data analyser that prints deliveries.
func registerAnalyser(domain *lciot.Domain, name string, ctx lciot.SecurityContext) (*lciot.Component, error) {
	return domain.Bus().Register(name, "hospital", ctx,
		func(m *lciot.Message, d lciot.Delivery) {
			p, _ := m.Get("patient")
			hr, _ := m.Get("heart-rate")
			if hr.Float > 120 {
				fmt.Printf("%s: %s heart-rate %.0f (elevated)\n", name, p.Str, hr.Float)
			}
		},
		lciot.EndpointSpec{Name: "in", Dir: lciot.Sink, Schema: vitals},
		lciot.EndpointSpec{Name: "alerts", Dir: lciot.Source, Schema: vitals})
}

// setupEmergency installs the Fig. 7 detection pattern, policy and devices.
func setupEmergency(domain *lciot.Domain) error {
	if _, err := domain.Bus().Register("emergency-team", "hospital", annCtx,
		func(m *lciot.Message, _ lciot.Delivery) {
			fmt.Println("Fig 7 — emergency team receiving live data")
		},
		lciot.EndpointSpec{Name: "in", Dir: lciot.Sink, Schema: vitals}); err != nil {
		return err
	}
	domain.Devices().RegisterActuator(newAnnActuator())
	domain.RegisterPattern(newTachycardiaPattern())
	domain.Store().Set("emergency", lciot.CtxBool(false))
	return domain.LoadPolicy(`
rule "emergency-response" priority 10 {
    on event "tachycardia"
    when not ctx.emergency
    do
        set emergency = true;
        alert "medical emergency detected for ann";
        breakglass 30m;
        connect "ann-analyser.alerts" -> "emergency-team.in";
        actuate "ann-sensor" "sample-interval" 1
}`)
}
