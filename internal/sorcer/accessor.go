package sorcer

import (
	"errors"
	"fmt"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
	"sensorcer/internal/registry"
)

// RegistrarSource yields the currently known lookup services; the
// discovery Manager satisfies it.
type RegistrarSource interface {
	Registrars() []registry.Registrar
}

// ErrNoProvider is returned when no provider satisfies a signature.
var ErrNoProvider = errors.New("sorcer: no provider for signature")

// Accessor finds service providers for signatures across every discovered
// lookup service — the paper's "Service Accessor" (§V-B): it "first
// discovers lookup services and then finds matching services specified by
// signatures in exertions".
type Accessor struct {
	source RegistrarSource
}

// NewAccessor creates an accessor over the registrar source.
func NewAccessor(source RegistrarSource) *Accessor {
	return &Accessor{source: source}
}

// template converts a signature to a lookup template.
func template(sig Signature) registry.Template {
	attrs := attr.CloneSet(sig.Attributes)
	if sig.ProviderName != "" {
		attrs = attrs.Replace(attr.Name(sig.ProviderName))
	}
	return registry.Template{
		Types:      []string{sig.ServiceType, ServicerType},
		Attributes: attrs,
	}
}

// Find returns one Servicer satisfying the signature.
func (a *Accessor) Find(sig Signature) (Servicer, error) {
	all, err := a.FindAll(sig, 1)
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// FindAll returns up to max (all if <= 0) distinct Servicers satisfying
// the signature, deduplicated across registrars by service ID.
func (a *Accessor) FindAll(sig Signature, max int) ([]Servicer, error) {
	tmpl := template(sig)
	var seen map[ids.ServiceID]bool
	var out []Servicer
	regs := a.source.Registrars()
	for _, reg := range regs {
		for _, item := range reg.Lookup(tmpl, lookupCap(max, regs)) {
			if seen[item.ID] {
				continue
			}
			if seen == nil {
				seen = make(map[ids.ServiceID]bool, 1)
			}
			seen[item.ID] = true
			svc, ok := item.Service.(Servicer)
			if !ok {
				continue // registered under Servicer type but wrong proxy
			}
			out = append(out, svc)
			if max > 0 && len(out) >= max {
				return out, nil
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoProvider, sig)
	}
	return out, nil
}

// lookupCap bounds a per-registrar lookup: with a single registrar the
// caller's max is exact, while several registrars need full match sets so
// cross-registrar duplicates cannot crowd out distinct providers.
func lookupCap(max int, regs []registry.Registrar) int {
	if len(regs) == 1 {
		return max
	}
	return 0
}
