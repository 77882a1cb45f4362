package hdm

import "fmt"

// ObjectKind classifies a schema object at the HDM level. Nodal objects
// have self-standing extents (e.g. relational tables); Link objects
// associate a nodal object with values or other objects (e.g. relational
// columns); ConstraintObj objects restrict extents (e.g. keys).
type ObjectKind int

const (
	// Nodal objects correspond to HDM nodes.
	Nodal ObjectKind = iota
	// Link objects correspond to HDM edges.
	Link
	// ConstraintObj objects correspond to HDM constraints.
	ConstraintObj
)

// String returns the lower-case name of the kind.
func (k ObjectKind) String() string {
	switch k {
	case Nodal:
		return "nodal"
	case Link:
		return "link"
	case ConstraintObj:
		return "constraint"
	}
	return fmt.Sprintf("ObjectKind(%d)", int(k))
}

// ParseObjectKind converts the textual kind name back to an ObjectKind.
func ParseObjectKind(s string) (ObjectKind, error) {
	switch s {
	case "nodal":
		return Nodal, nil
	case "link":
		return Link, nil
	case "constraint":
		return ConstraintObj, nil
	}
	return 0, fmt.Errorf("hdm: unknown object kind %q", s)
}

// Object is a schema object: a scheme plus its classification in the
// modelling language it belongs to (as registered in the Model
// Definitions Repository).
//
// An object is immutable once it is in a schema: schemas share objects
// (every global schema version adds the federated objects federation
// made, the intersection objects of its intersection schemas, and a
// Schema.Clone the objects of its original), so a change is a new
// object (WithScheme), never a write to a field.
type Object struct {
	// Scheme identifies the object within its schema.
	Scheme Scheme
	// Kind is the object's HDM-level classification.
	Kind ObjectKind
	// Model names the modelling language, e.g. "sql", "csv", "xml".
	Model string
	// Construct names the construct within the modelling language,
	// e.g. "table", "column", "element".
	Construct string
}

// NewObject builds an object.
func NewObject(scheme Scheme, kind ObjectKind, model, construct string) *Object {
	return &Object{Scheme: scheme, Kind: kind, Model: model, Construct: construct}
}

// WithScheme returns a copy of the object carrying the given scheme;
// used by rename and federation prefixing.
func (o *Object) WithScheme(s Scheme) *Object {
	cp := *o
	cp.Scheme = s
	return &cp
}

// String renders the object as "construct <<scheme>>".
func (o *Object) String() string {
	if o.Construct == "" {
		return o.Scheme.String()
	}
	return o.Construct + " " + o.Scheme.String()
}
