// Package taxonomy provides the static topic taxonomy that the simulator
// and the content-based baseline share. The paper's content-based
// heuristic ([16], Section 7.3.2) relies on page → category and
// landing-page → category mappings (it used AdWords categories); here the
// categories come from a fixed taxonomy so that the semantic-overlap test
// is deterministic and reproducible.
package taxonomy

import "fmt"

// Topic is one interest / content category.
type Topic int

// The taxonomy. The list mirrors the interest categories that appear in
// the paper's examples (computers, cars, dating, fast food, beauty,
// seafood, real estate, ...) plus enough general-audience topics for a
// thousand-site web.
const (
	Computers Topic = iota
	Electronics
	Programming
	Cars
	Sports
	Fishing
	Travel
	Fashion
	Beauty
	Fitness
	Food
	Seafood
	FastFood
	Dating
	RealEstate
	Insurance
	Government
	InternetServices
	News
	Finance
	Health
	Gaming
	Music
	Movies
	Pets
	Gardening
	Parenting
	Education
	Shopping
	Photography
	numTopics // sentinel
)

// Count is the number of topics in the taxonomy.
const Count = int(numTopics)

var names = [...]string{
	"computers", "electronics", "programming", "cars", "sports",
	"fishing", "travel", "fashion", "beauty", "fitness",
	"food", "seafood", "fast-food", "dating", "real-estate",
	"insurance", "government", "internet-services", "news", "finance",
	"health", "gaming", "music", "movies", "pets",
	"gardening", "parenting", "education", "shopping", "photography",
}

// String implements fmt.Stringer.
func (t Topic) String() string {
	if t < 0 || int(t) >= Count {
		return fmt.Sprintf("Topic(%d)", int(t))
	}
	return names[t]
}

// ByName returns the topic with the given name.
func ByName(name string) (Topic, bool) {
	for i, n := range names {
		if n == name {
			return Topic(i), true
		}
	}
	return 0, false
}

// All returns all topics in taxonomy order.
func All() []Topic {
	out := make([]Topic, Count)
	for i := range out {
		out[i] = Topic(i)
	}
	return out
}

// related maps each topic to semantically adjacent topics. Overlap(a, b)
// is true when a == b or b is in related[a]. The detector's "indirect
// targeting" examples are exactly pairs with NO overlap (e.g. computers →
// dating, beauty → seafood).
var related = map[Topic][]Topic{
	Computers:        {Electronics, Programming, InternetServices, Gaming},
	Electronics:      {Computers, Programming, Photography, Gaming},
	Programming:      {Computers, Electronics, InternetServices, Education},
	Cars:             {Insurance, Sports},
	Sports:           {Fitness, Cars, Gaming},
	Fishing:          {Sports, Food},
	Travel:           {Photography, Food},
	Fashion:          {Beauty, Shopping},
	Beauty:           {Fashion, Fitness, Health},
	Fitness:          {Sports, Health, Beauty},
	Food:             {Seafood, FastFood, Travel},
	Seafood:          {Food},
	FastFood:         {Food},
	Dating:           {},
	RealEstate:       {Finance, Insurance},
	Insurance:        {Finance, Cars, RealEstate, Health},
	Government:       {News, Education},
	InternetServices: {Computers, Programming},
	News:             {Government, Finance},
	Finance:          {Insurance, RealEstate, News},
	Health:           {Fitness, Beauty, Insurance},
	Gaming:           {Computers, Electronics, Sports},
	Music:            {Movies},
	Movies:           {Music, News},
	Pets:             {Gardening},
	Gardening:        {Pets, RealEstate},
	Parenting:        {Education, Health},
	Education:        {Programming, Parenting, Government},
	Shopping:         {Fashion, Electronics},
	Photography:      {Electronics, Travel},
}

// Overlap reports whether topics a and b are semantically overlapping —
// the test that separates direct from indirect targeting (Section 2.1).
func Overlap(a, b Topic) bool {
	if a == b {
		return true
	}
	for _, r := range related[a] {
		if r == b {
			return true
		}
	}
	for _, r := range related[b] {
		if r == a {
			return true
		}
	}
	return false
}

// OverlapAny reports whether any topic in as overlaps b.
func OverlapAny(as []Topic, b Topic) bool {
	for _, a := range as {
		if Overlap(a, b) {
			return true
		}
	}
	return false
}

// NonOverlapping returns, for topic a, some topic with no semantic
// overlap — used by the simulator to construct indirect campaigns.
func NonOverlapping(a Topic) Topic {
	for _, t := range All() {
		if !Overlap(a, t) {
			return t
		}
	}
	return a // fully-connected taxonomy would make this unreachable
}
