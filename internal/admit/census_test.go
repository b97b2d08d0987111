package admit

import (
	"reflect"
	"slices"
	"testing"
)

// fieldNames lists a struct type's fields in declaration order.
func fieldNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// TestOptionsCensus pins the settable surface of the gate and the limiter.
// Every field doubles what the tests and the benchmark must cover: adding
// one is an edit here, with the reason it has a second value in use.
// (TestLimitModeCensus pins the laws Mode selects.)
func TestOptionsCensus(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{GateOptions{}, []string{"Capacity", "QueueCap", "Clock"}},
		{LimiterOptions{}, []string{"Mode", "Initial", "Max", "QueueCap", "Clock"}},
	} {
		if got := fieldNames(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%T fields = %v, want %v", c.v, got, c.want)
		}
	}
}
