// Package federation scales the SpotWeb portfolio past a single solver by
// modeling a multi-provider, multi-region transient market: deterministic
// synthetic providers expose region/AZ-tagged catalogs, a Federation merges
// them into one global view that preserves per-market identity (so the PR 7
// risk overlay still addresses markets by global index), and a hierarchically
// sharded planner decomposes the MPO by region/AZ shard, solving each shard
// with the warm-started FISTA solver machinery from internal/portfolio
// under a budget-split coordination loop.
package federation

import (
	"fmt"
	"hash/fnv"

	"repro/internal/market"
)

// PriceProcess describes a provider's spot price dynamics relative to the
// shared synthetic generator: the mean discount off on-demand and
// multiplicative scalings of the generator's drawn volatility/reversion.
type PriceProcess struct {
	MeanDiscount    float64
	VolatilityScale float64
	ReversionScale  float64
}

// RevocationStats describes a provider's resting revocation behaviour: the
// base per-interval failure probability and how many correlated demand pools
// (groups) each AZ's markets are spread over.
type RevocationStats struct {
	BaseFailProb float64
	Groups       int
}

// Provider is one transient-cloud vendor in the federation: a source of
// region names and of deterministic per-AZ market catalogs, plus the price
// and revocation parameters that flavor them. Implementations must be
// deterministic in their seed — two providers constructed with the same kind
// and seed return byte-identical catalogs.
type Provider interface {
	// Name is the provider's catalog-qualified name ("aws", "azure").
	Name() string
	// Regions returns the first n region names (cycling with an ordinal
	// suffix when n exceeds the provider's built-in list).
	Regions(n int) []string
	// PriceProcess returns the provider's price-dynamics descriptor.
	PriceProcess() PriceProcess
	// RevocationStats returns the provider's revocation descriptor.
	RevocationStats() RevocationStats
	// Catalog generates the deterministic catalog of one AZ: types transient
	// markets (plus on-demand variants when includeOnDemand), hours×
	// samplesPerHour intervals. The same (region, az, types, hours,
	// samplesPerHour, includeOnDemand) always yields the same catalog.
	Catalog(region string, az, types, hours, samplesPerHour int, includeOnDemand bool) *market.Catalog
}

// synthProvider is the built-in deterministic provider: a named flavor over
// market.CatalogConfig. AWS-style markets are cheap, choppy and revoke more;
// Azure-style markets are pricier, calmer and revoke less — enough contrast
// that federated plans visibly trade discount against stability.
type synthProvider struct {
	name    string
	seed    int64
	regions []string
	price   PriceProcess
	revoke  RevocationStats
}

// New constructs a built-in provider by kind ("aws" or "azure") with the
// given federation seed. Unknown kinds are an error so flag typos fail fast.
func New(kind string, seed int64) (Provider, error) {
	switch kind {
	case "aws":
		return &synthProvider{
			name: "aws",
			seed: seed,
			regions: []string{
				"us-east-1", "us-west-2", "eu-west-1", "eu-central-1",
				"ap-south-1", "ap-northeast-1", "sa-east-1", "ca-central-1",
			},
			price:  PriceProcess{MeanDiscount: 0.25, VolatilityScale: 1.25, ReversionScale: 1},
			revoke: RevocationStats{BaseFailProb: 0.045, Groups: 3},
		}, nil
	case "azure":
		return &synthProvider{
			name: "azure",
			seed: seed,
			regions: []string{
				"eastus", "westus2", "westeurope", "northeurope",
				"centralindia", "japaneast", "brazilsouth", "canadacentral",
			},
			price:  PriceProcess{MeanDiscount: 0.38, VolatilityScale: 0.6, ReversionScale: 1.4},
			revoke: RevocationStats{BaseFailProb: 0.025, Groups: 2},
		}, nil
	default:
		return nil, fmt.Errorf("federation: unknown provider kind %q (want aws|azure)", kind)
	}
}

func (p *synthProvider) Name() string                     { return p.name }
func (p *synthProvider) PriceProcess() PriceProcess       { return p.price }
func (p *synthProvider) RevocationStats() RevocationStats { return p.revoke }

// Regions implements Provider.
func (p *synthProvider) Regions(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r := p.regions[i%len(p.regions)]
		if cycle := i / len(p.regions); cycle > 0 {
			r = fmt.Sprintf("%s-x%d", r, cycle)
		}
		out = append(out, r)
	}
	return out
}

// Catalog implements Provider. The per-AZ seed folds (provider seed, name,
// region, az) through FNV-1a so every AZ gets an independent but fully
// reproducible price/failure history.
func (p *synthProvider) Catalog(region string, az, types, hours, samplesPerHour int, includeOnDemand bool) *market.Catalog {
	return market.CatalogConfig{
		Seed:            shardSeed(p.seed, p.name, region, az),
		NumTypes:        types,
		IncludeOnDemand: includeOnDemand,
		Hours:           hours,
		SamplesPerHour:  samplesPerHour,
		Groups:          p.revoke.Groups,
		MeanDiscount:    p.price.MeanDiscount,
		BaseFailProb:    p.revoke.BaseFailProb,
		VolatilityScale: p.price.VolatilityScale,
		ReversionScale:  p.price.ReversionScale,
	}.Generate()
}

// shardSeed derives a deterministic catalog seed from the federation seed
// and the shard's (provider, region, az) identity.
func shardSeed(seed int64, provider, region string, az int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", seed, provider, region, az)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
