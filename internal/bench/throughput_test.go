package bench

import (
	"testing"

	"repro/securespread"
)

func TestThroughputSmoke(t *testing.T) {
	tp, err := MeasureBulk(securespread.ProtoCliques, "blowfish-cbc", 2, 256, 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", tp)
}
