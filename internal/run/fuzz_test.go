package run

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioDecode fuzzes the daemon's only untrusted input, the
// scenario JSON body. Decode must never panic on arbitrary bytes, and a
// scenario that decodes and validates must survive the record/replay
// path: Save then Load returns an equal scenario that still validates,
// with the same canonical Args, which must be deterministic.
func FuzzScenarioDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"experiments":["serving2"],"rates":"0.5,1","replicas":"1,2","modes":"serial,cooperative","queuecap":0,"slo":12.5}`))
	f.Add([]byte(`{"experiments":["resilience"],"faults":"60,15","faultseed":99,"policy":"none,failover"}`))
	f.Add([]byte(`{"experiments":["cluster"],"strategy":"least-loaded","fleet":"jetson:26,ideapad/mac8:26","devices":12,"rate":3,"sync":5,"steal":1,"stealthreshold":0,"stealscore":"depth"}`))
	f.Add([]byte(`{"experiments":["maptune"],"tunebudget":64,"tuneseed":5,"seed":-3,"scale":1}`))
	f.Add([]byte(`{"rates":"potato"}`))
	f.Add([]byte(`{"experiments":["serving2","resilience"],"rates":"NaN","faults":"Inf"}`))
	f.Add([]byte(hangBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(bytes.NewReader(data))
		if err != nil || sc.Validate() != nil {
			return
		}
		args := sc.Args()
		if again := sc.Args(); !reflect.DeepEqual(args, again) {
			t.Fatalf("Args not deterministic: %q vs %q", args, again)
		}
		path := filepath.Join(t.TempDir(), "sc.json")
		if err := sc.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load of a saved valid scenario: %v", err)
		}
		// An explicit empty experiment list means "all", as an omitted
		// one does; Save omits it, so compare it as nil.
		if len(sc.Experiments) == 0 {
			sc.Experiments = nil
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("Save/Load round trip:\n got %+v\nwant %+v", got, sc)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("reloaded scenario no longer validates: %v", err)
		}
		if gotArgs := got.Args(); !reflect.DeepEqual(gotArgs, args) {
			t.Fatalf("Args changed across Save/Load: %q vs %q", gotArgs, args)
		}
	})
}
