package node

import (
	"reflect"
	"slices"
	"testing"
)

// TestSettingsCensus pins the settable surface of a deployment: the
// cluster config's fields, the transport's options, and the node kinds'
// setters. Every setting doubles what the tests and the benchmark must
// cover, so adding one is an edit here, with the reason it has a second
// value in use.
func TestSettingsCensus(t *testing.T) {
	fields := func(v any) []string {
		typ := reflect.TypeOf(v)
		names := make([]string, typ.NumField())
		for i := range names {
			names[i] = typ.Field(i).Name
		}
		return names
	}
	for _, c := range []struct {
		v    any
		want []string
	}{
		{ClusterConfig{}, []string{"IntraGen", "Rings", "Addrs", "OriginAddr", "CapacityBytes", "UtilityPlacement",
			"MaxInflight", "MissQueue", "StoreDir", "Fsync", "Shields", "ShieldAddrs", "Tenants", "Clock", "Tracer"}},
		{TransportOptions{}, []string{"RequestTimeout", "MaxRetries", "BreakerThreshold", "OnBreakerOpen", "Client", "Clock"}},
	} {
		if got := fields(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%T fields = %v, want %v", c.v, got, c.want)
		}
	}
	// The tracer is set once, through ClusterConfig.Tracer.
	for _, v := range []any{&CacheNode{}, &OriginNode{}, &ShieldNode{}} {
		if _, ok := reflect.TypeOf(v).MethodByName("SetTracer"); ok {
			t.Errorf("%T has a SetTracer: ClusterConfig.Tracer is the one way in", v)
		}
	}
}
