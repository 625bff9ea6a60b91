//go:build !e2elayers

// Fallback when the layer probe no longer builds against the engine's
// internal packages: the traced run then reports those metrics absent.

package main

import (
	"context"

	als "repro"
	"repro/internal/cell"
	"repro/internal/netlist"
)

type layerProbe struct{}

func newLayerProbe(*cell.Library, int) *layerProbe { return nil }

func (*layerProbe) timeBuilds([]flowItem) {}
func (*layerProbe) flowContext(ctx context.Context) (context.Context, func()) {
	return ctx, func() {}
}
func (*layerProbe) measure(flowItem, *netlist.Circuit, *als.FlowResult, als.Front) error { return nil }
func (*layerProbe) report(*report)                                                       {}

func storeGetUS([]string, []string) (float64, bool, error) { return 0, false, nil }
