package core

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
)

// TestGraphSizeOnMetrics: the provenance graph's node and edge counts are
// scraped from /metrics and agree with Graph.Len.
func TestGraphSizeOnMetrics(t *testing.T) {
	const name = "graph-gauge"
	d, err := NewDomain(name, Options{Clock: newTestClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctx := ifc.MustContext([]ifc.Tag{"telemetry"}, nil)
	src, err := d.Bus().Register("sensor", name, ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bus().Register("sink", name, ctx, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(PolicyEnginePrincipal, "sensor.out", "sink.in"); err != nil {
		t.Fatal(err)
	}
	const flows = 3
	for i := 0; i < flows; i++ {
		m := msg.New("telemetry").Set("device", msg.Str("ann")).Set("value", msg.Float(float64(i)))
		m.DataID = fmt.Sprintf("ann/reading/%d", i)
		if _, err := src.Publish("out", m); err != nil {
			t.Fatal(err)
		}
	}
	d.Log().Flush()

	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := d.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			for _, series := range []string{"audit_graph_nodes", "audit_graph_edges"} {
				prefix := series + `{domain="` + name + `"} `
				if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %v", sc.Text(), err)
					}
					got[series] = f
				}
			}
		}
		return got
	}
	got := scrape()
	nodes, edges := d.Provenance().Len()
	// Each flow adds its datum and the datum's two edges; the two
	// processes, the publishing agent and the wasInformedBy and
	// wasControlledBy edges between them are added once.
	if nodes != flows+3 || edges != 2*flows+2 {
		t.Fatalf("graph after %d flows: %d nodes, %d edges", flows, nodes, edges)
	}
	if got["audit_graph_nodes"] != float64(nodes) || got["audit_graph_edges"] != float64(edges) {
		t.Fatalf("scraped %v, Graph.Len = %d nodes, %d edges", got, nodes, edges)
	}
}
