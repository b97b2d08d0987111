package simnet

import (
	"reflect"
	"slices"
	"testing"
)

// TestSettingsCensus pins the settable surface of the deterministic
// simulator and its schedule generator. A setting with one value in use is
// a constant (intraGen, heartbeat, missK); each field kept has the reason
// it has a second value in use, and adding one is an edit here.
func TestSettingsCensus(t *testing.T) {
	for _, c := range []struct {
		v    any
		kept []struct{ field, why string }
	}{
		{Config{}, []struct{ field, why string }{
			{"Seed", "every sweep's seed"},
			{"Nodes", "simnet -nodes"},
			{"RingSize", "simnet -ringsize"},
			{"Docs", "simnet -docs"},
			{"Rounds", "simnet -rounds; TestMinimize's one-round schedule"},
			{"Schedule", "simnet -schedule replays, and Minimize's candidates"},
			{"Inject", "the harness self-tests (simnet -inject)"},
			{"Warm", "make restart-chaos's warm sweep"},
			{"Shields", "make shield-sweep's two-tier sweep"},
			{"Tenants", "make tenant-sweep's multi-tenant sweep"},
			{"StoreDir", "tests keep a warm run's logs in their own temp dir"},
			{"Tracer", "TestTracerReachesTheNodes, and the seam for naming a failure's hops"},
		}},
		{GenConfig{}, []struct{ field, why string }{
			{"Nodes", "Config.Nodes"},
			{"Rounds", "Config.Rounds"},
			{"Warm", "Config.Warm"},
			{"Shields", "Config.Shields"},
			{"Tenants", "Config.Tenants"},
		}},
	} {
		want := make([]string, len(c.kept))
		for i, k := range c.kept {
			want[i] = k.field
		}
		typ := reflect.TypeOf(c.v)
		got := make([]string, typ.NumField())
		for i := range got {
			got[i] = typ.Field(i).Name
		}
		if !slices.Equal(got, want) {
			t.Errorf("%T fields = %v, want %v", c.v, got, want)
		}
	}
}
