package schema_test

import (
	"fmt"

	"repro/internal/schema"
)

func ExampleParser_ParseLine() {
	s, _ := schema.ParseSchema("ip:string,day:date,rev:float64")
	p := schema.NewParser(s)
	row, err := p.ParseLine("10.0.0.1,1999-01-01,12.5")
	if err != nil {
		panic(err)
	}
	fmt.Println(row[1].Days() == schema.MustDate("1999-01-01"))
	fmt.Println(row.Line(','))

	// A malformed line becomes a bad record at upload (§3.1).
	_, err = p.ParseLine("not,enough")
	fmt.Println(err != nil)
	// Output:
	// true
	// 10.0.0.1,1999-01-01,12.5
	// true
}
