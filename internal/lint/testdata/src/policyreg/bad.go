// Package policyreg holds failing fixtures for the policyreg analyzer:
// registration outside init/main, duplicate names, reserved names.
package policyreg

import (
	"context"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

type basePolicy struct{}

func (basePolicy) Wait(ctx context.Context, h *lcrt.Handle, a golc.Acquire) error {
	for !a.Try() {
	}
	return nil
}

type dupA struct{ basePolicy }
type dupB struct{ basePolicy }
type late struct{ basePolicy }
type shadow struct{ basePolicy }

func (dupA) Name() string   { return "dup" }
func (dupB) Name() string   { return "dup" }
func (late) Name() string   { return "late" }
func (shadow) Name() string { return "spin" }

func init() {
	_ = golc.RegisterPolicy(dupA{})   // want `duplicate policy name "dup"`
	_ = golc.RegisterPolicy(dupB{})   // want `duplicate policy name "dup"`
	_ = golc.RegisterPolicy(shadow{}) // want `collides with a built-in policy`
}

func setup() {
	_ = golc.RegisterPolicy(late{}) // want `RegisterPolicy called from setup`
}
