package tdmroute

import (
	"reflect"
	"slices"
	"testing"
)

// optionSurface is every field path a caller can set on Options, through
// its Route and TDM stage options, in declaration order. The paper's fixed
// parameters are constants, not entries here. A change that adds an option
// edits this list and says in CHANGES.md why a constant would not do.
var optionSurface = []string{
	"Route.RipUpRounds",
	"Route.Order",
	"Route.Workers",
	"Route.Partitions",
	"TDM.Epsilon",
	"TDM.MaxIter",
	"TDM.Update",
	"TDM.Legal",
	"TDM.Workers",
	"TDM.Trace",
	"TDM.WarmLambda",
	"TDM.CaptureLambda",
	"Workers",
	"Partitions",
}

// TestOptionSurface walks Options by reflection, descending into the Route
// and TDM stage options, and requires its exported field paths to equal
// optionSurface.
func TestOptionSurface(t *testing.T) {
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			default:
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(Options{}))
	if slices.Equal(got, optionSurface) {
		return
	}
	for _, p := range got {
		if !slices.Contains(optionSurface, p) {
			t.Errorf("option %s is not in optionSurface", p)
		}
	}
	for _, p := range optionSurface {
		if !slices.Contains(got, p) {
			t.Errorf("optionSurface lists %s, which Options does not have", p)
		}
	}
	t.Errorf("option paths %v, want %v", got, optionSurface)
}
