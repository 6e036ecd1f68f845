// Fixture for the lint:allow machinery, driven through the errsink
// analyzer (the easiest one to trigger deliberately).
package allow

func save() error { return nil }

// suppressedSameLine: directive on the offending line.
func suppressedSameLine() {
	save() //lint:allow errsink deliberate fire-and-forget for the fixture
}

// suppressedLineAbove: the standalone-comment form covers the line below.
func suppressedLineAbove() {
	//lint:allow errsink the drop is the scenario being modeled
	save()
}

// wrongAnalyzer: a directive for a different analyzer suppresses nothing.
func wrongAnalyzer() {
	save() /* want `error result of save dropped` */ //lint:allow wallclock names the wrong analyzer on purpose
}

// tooFarAway: a directive two lines up is out of range.
func tooFarAway() {
	//lint:allow errsink too far from the offense to count

	save() // want `error result of save dropped`
}

// missingReason: an unauditable directive is itself reported and
// suppresses nothing.
func missingReason() {
	/* want `lint:allow errsink needs a reason` */ //lint:allow errsink
	save()                                         // want `error result of save dropped`
}

// malformed: no analyzer name at all.
func malformed() {
	/* want `malformed lint:allow comment` */ //lint:allow
	save()                                    // want `error result of save dropped`
}
