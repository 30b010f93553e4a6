package policy

import "testing"

// FuzzParse feeds arbitrary source to the parser: it must never panic, and
// the rendering of every rule and obligation it accepts must parse back to
// a policy that renders identically.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`rule "emergency-response" priority 10 {
    on event "tachycardia"
    when ctx.location == "home" and not ctx.emergency
    do
        set emergency = true;
        alert "emergency detected";
        connect "ann-analyser" -> "emergency-service";
        grant "ann-analyser" remove_secrecy {ann};
        setcontext "doctor-app" S = {medical, ann} I = {};
        actuate "ann-sensor" "sample-interval" 1;
        breakglass 30m
}`,
		`rule "r" { on context shift-status do alert "x" }`,
		`rule "r" { on timer 5m do alert "x" }`,
		`rule "a" { on event "e" when ctx.x == 1 or ctx.y == 2 and ctx.z == 3 do alert "m" }
rule "b" { on event "e" do disconnect "p" -> "q"; quarantine "p" }`,
		`rule "r" { on event "e" when (ctx.x == 1 or ctx.y == 2) and ctx.z == 3 do alert "m" }`,
		`rule "r" { on event "e" do alert "say \"hi\"" }`,
		`rule "r" { on event "e" when ctx.temp < -10 do alert "freezing" }`,
		`rule "r" { on event "e" when event.value > 100 and event.source == "ann-sensor" do alert "m" }`,
		`rule "close" priority 1 { on context x when ctx.x do set mode = "closed" }`,
		`rule "r" { on timer 1500ns when 1 == (not true) do breakglass 1500ns }`,
		`obligation "gdpr-medical" on medical {
  retain 720h;
  erase on "subject-erasure";
  residency eu uk;
  purpose research, treatment;
}
rule "r" { on timer 1s do alert "tick" }`,
		`obligation "x" on "a.b" { residency "9z"; }`,
		`rule "r" { on event "p" do grant "t" give_all {a} }`,
		`rule "r`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		set, err := Parse(src)
		if err != nil {
			return
		}
		for _, r := range set.Rules {
			reparsed(t, r.String(), func(s *PolicySet) string { return s.Rules[0].String() })
		}
		for _, o := range set.Obligations {
			reparsed(t, o.String(), func(s *PolicySet) string { return s.Obligations[0].String() })
		}
	})
}

// reparsed parses one rendered declaration and requires that it renders
// back to the same text.
func reparsed(t *testing.T, rendered string, again func(*PolicySet) string) {
	t.Helper()
	set, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", rendered, err)
	}
	if got := again(set); got != rendered {
		t.Fatalf("round trip changed the rendering:\n got %q\nwant %q", got, rendered)
	}
}
