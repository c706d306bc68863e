"""JSON readers and writers for the file formats the CLI accepts.

All files are UTF-8 JSON.  Category files reject unknown keys; identities
are implicit with reserved ids ``id_<obj>``.  Matrices travel as row-major
arrays of decimal strings so integer width is never ambiguous.
"""

from __future__ import annotations

import functools
import json

from .diagrams import AbDiagram, GroupDiagram, constant_ab_diagram, constant_group_diagram
from .fincat import Functor, factorization, opposite, validate_category
from .groups import FinGroup, FreeProduct, GroupHom, GroupPresentation
from .homalg import AbMap, FGAb, IntMatrix
from .hocolim import PointedDiagram, bg_diagram
from .presheaf import DSet, DSetMorphism, SSetMap, TruncSSet, elements_with_parts


class InputError(Exception):
    """Malformed input file; maps to exit code 1 in the CLI."""


def _require_keys(obj, required, optional=(), what="object"):
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object" % what)
    keys = set(obj)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise InputError("%s misses keys: %s" % (what, ", ".join(sorted(missing))))
    if unknown:
        raise InputError("%s has unknown keys: %s" % (what, ", ".join(sorted(unknown))))


def _integer(value, what):
    """An integer given as a JSON number or a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError("%s must be an integer" % what)
    try:
        return int(value)
    except ValueError:
        raise InputError("%s must be an integer, not %r" % (what, value)) from None


def _count(value, what):
    n = _integer(value, what)
    if n < 0:
        raise InputError("%s must not be negative" % what)
    return n


# the largest sizes a workspace may ask for.  A size is one number in the
# file, so a short edit could otherwise ask for more memory than the host
# has; a larger one is refused before anything is allocated.
MAX_GENS = 4096  # generators of an abelian group
MAX_MATRIX_SIDE = 4096  # rows, and columns, of a matrix
MAX_LEVEL = 6  # truncation level of a simplicial set or a pointed diagram


def _size(value, what, limit):
    """A count of at most ``limit``."""
    n = _count(value, what)
    if n > limit:
        raise InputError("%s is %d, over the limit of %d" % (what, n, limit))
    return n


def _mapping(obj, what):
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object" % what)
    return obj


def _array(obj, what):
    if not isinstance(obj, list):
        raise InputError("%s must be a JSON array" % what)
    return obj


def _id(value, what):
    """An object or morphism id, which is a JSON string."""
    if not isinstance(value, str):
        raise InputError("%s must be a string, not %s" % (what, json.dumps(value)))
    return value


def _element(value, what):
    """An element of a group or of a presheaf's set: a JSON string or number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError("%s must be a string or a number, not %s" % (what, json.dumps(value)))
    return value


def matrix_from_json(obj):
    _require_keys(obj, ("rows", "cols", "data"), what="matrix")
    m = _size(obj["rows"], "matrix rows", MAX_MATRIX_SIDE)
    n = _size(obj["cols"], "matrix cols", MAX_MATRIX_SIDE)
    data = obj["data"]
    if not isinstance(data, list):
        raise InputError("matrix data must be a JSON array")
    if len(data) != m * n:
        raise InputError("matrix data has %d entries, rows*cols is %d" % (len(data), m * n))
    for x in data:
        _integer(x, "matrix entry")
    return IntMatrix.from_json(obj)


def category_from_json(obj, name=""):
    _require_keys(obj, ("objects", "morphisms", "composition"), what="category")
    for key in ("objects", "morphisms", "composition"):
        if not isinstance(obj[key], list):
            raise InputError("category %s must be a JSON array" % key)
    objects = [_id(o, "category object") for o in obj["objects"]]
    morphisms = []
    for m in obj["morphisms"]:
        _require_keys(m, ("id", "dom", "cod"), what="morphism")
        morphisms.append(tuple(_id(m[k], "morphism " + k) for k in ("id", "dom", "cod")))
    composition = []
    for c in obj["composition"]:
        _require_keys(c, ("g", "f", "eq"), what="composition entry")
        composition.append(tuple(_id(c[k], "composition entry " + k) for k in ("g", "f", "eq")))
    return validate_category(objects, morphisms, composition, name=name)


def category_to_json(C):
    return {
        "objects": list(C.objects),
        "morphisms": [
            {"id": f, "dom": C.dom[f], "cod": C.cod[f]}
            for f in C.morphisms
            if not C.is_identity(f)
        ],
        "composition": [
            {"g": g, "f": f, "eq": h}
            for (g, f), h in sorted(C.comp.items())
            if not (C.is_identity(g) or C.is_identity(f))
        ],
    }


def functor_from_json(obj, workspace, name=""):
    _require_keys(obj, ("source", "target", "objects"), ("morphisms",), what="functor")
    src = workspace.get("categories", obj["source"])
    tgt = workspace.get("categories", obj["target"])
    obj_map = _mapping(obj["objects"], "functor objects")
    mor_map = _mapping(obj.get("morphisms", {}), "functor morphisms")
    for what, images in (("functor object image", obj_map), ("functor morphism image", mor_map)):
        for y in images.values():
            _id(y, what)
    return Functor(src, tgt, obj_map, mor_map, name=name)


def group_from_json(obj, name=""):
    if isinstance(obj, dict) and obj.get("kind") == "presentation":
        return presentation_from_json(obj)
    _require_keys(obj, ("kind", "elements", "unit", "table"), what="group")
    if obj["kind"] != "table":
        raise InputError("unknown group kind %r" % obj["kind"])
    els = obj["elements"]
    rows = obj["table"]
    if not isinstance(els, list) or not isinstance(rows, list):
        raise InputError("group elements and table must be JSON arrays")
    if len(rows) != len(els) or any(not isinstance(r, list) or len(r) != len(els) for r in rows):
        raise InputError("group table must be a square over the elements")
    for a in els:
        _element(a, "group element")
    table = {}
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            table[(a, b)] = _element(rows[i][j], "group table entry")
    return FinGroup(els, obj["unit"], table, name=name)


def presentation_from_json(obj):
    _require_keys(obj, ("kind", "generators", "relators"), what="presentation")
    if obj["kind"] != "presentation":
        raise InputError("unknown presentation kind %r" % obj["kind"])
    generators = _array(obj["generators"], "presentation generators")
    for g in generators:
        if not isinstance(g, str):
            raise InputError("presentation generator must be a string, not %s" % json.dumps(g))
    relators = _array(obj["relators"], "presentation relators")
    for rel in relators:
        for letter in _array(rel, "relator"):
            if not (isinstance(letter, str) or _signed_generator(letter)):
                raise InputError(
                    "relator letter must be a string or a [string, 1 or -1] pair, not %s"
                    % json.dumps(letter)
                )
    return GroupPresentation(generators, relators)


def _signed_generator(letter):
    return (
        isinstance(letter, list)
        and len(letter) == 2
        and isinstance(letter[0], str)
        and type(letter[1]) is int
        and letter[1] in (1, -1)
    )


def presentation_to_json(P):
    return {
        "kind": "presentation",
        "generators": list(P.generators),
        "relators": P.relator_strings(),
    }


def free_product_from_json(obj, workspace):
    if "ref" in _mapping(obj, "diagram group"):
        G = workspace.get("groups", obj["ref"])
        return FreeProduct.from_group(obj.get("label", obj["ref"]), G)
    if obj.get("kind") == "free_product":
        factors = []
        for fac in _array(obj.get("factors"), "free product factors"):
            _require_keys(fac, ("label", "group"), what="free product factor")
            factors.append((fac["label"], group_from_json(fac["group"])))
        return FreeProduct(factors)
    G = group_from_json(obj)
    return FreeProduct.from_group(obj.get("label", G.name or "G"), G)


def _word_from_json(word, target, what):
    """A word of the free product ``target``: an array of [factor label,
    element] letters, each naming an element of a factor."""
    for letter in _array(word, what):
        if not (isinstance(letter, list) and len(letter) == 2 and isinstance(letter[0], str)
                and not isinstance(letter[1], (list, dict))):
            raise InputError("%s letter must be a [label, element] pair, not %s"
                             % (what, json.dumps(letter)))
        target.letter(*letter)
    return tuple((l[0], l[1]) for l in word)


def group_diagram_from_json(obj, workspace, name=""):
    _require_keys(obj, ("category", "groups", "homs"), what="diagram")
    C = workspace.get("categories", obj["category"])
    value = {o: free_product_from_json(g, workspace)
             for o, g in _mapping(obj["groups"], "diagram groups").items()}
    _require_values(C, value, "diagram")
    actions = {}
    for mid, table in _mapping(obj["homs"], "diagram homs").items():
        if mid not in C.dom:
            raise InputError("diagram references unknown morphism %s" % mid)
        _mapping(table, "hom at %s" % mid)
        src = value[C.dom[mid]]
        dst = value[C.cod[mid]]
        letters = {"%s.%s" % (lbl, el) for lbl, grp in src.factors for el in grp.elements
                   if el != grp.unit}
        unknown = sorted(set(table) - letters)
        if unknown:
            raise InputError("hom at %s has keys naming no letter of its source: %s"
                             % (mid, ", ".join(unknown)))
        per = {}
        for lbl, grp in src.factors:
            per[lbl] = {}
            for el in grp.elements:
                if el == grp.unit:
                    per[lbl][el] = ()
                    continue
                key = "%s.%s" % (lbl, el)
                if key not in table:
                    raise InputError("hom at %s misses letter %s" % (mid, key))
                per[lbl][el] = _word_from_json(table[key], dst, "hom at %s" % mid)
        actions[mid] = GroupHom(src, dst, per)
    return GroupDiagram(C, value, actions, name=name)


def _require_values(C, value, what):
    for o in C.objects:
        if o not in value:
            raise InputError("%s misses a value at %s" % (what, o))


def fgab_from_json(obj):
    _require_keys(obj, ("gens",), ("rels",), what="abelian group")
    gens = _size(obj["gens"], "abelian group gens", MAX_GENS)
    rels = matrix_from_json(obj["rels"]) if "rels" in obj else None
    if rels is not None and rels.rows != gens:
        raise InputError("abelian group rels has %d rows, gens is %d" % (rels.rows, gens))
    return FGAb(gens, rels)


def ab_diagram_from_json(obj, workspace, name=""):
    _require_keys(obj, ("category", "values", "maps"), what="abelian diagram")
    C = workspace.get("categories", obj["category"])
    value = {o: fgab_from_json(v)
             for o, v in _mapping(obj["values"], "abelian diagram values").items()}
    _require_values(C, value, "abelian diagram")
    actions = {}
    for mid, mat in _mapping(obj["maps"], "abelian diagram maps").items():
        if mid not in C.dom:
            raise InputError("diagram references unknown morphism %s" % mid)
        src, dst, mat = value[C.dom[mid]], value[C.cod[mid]], matrix_from_json(mat)
        if (mat.rows, mat.cols) != (dst.gens, src.gens):
            raise InputError("map at %s is %dx%d, needs %dx%d"
                             % (mid, mat.rows, mat.cols, dst.gens, src.gens))
        actions[mid] = AbMap(src, dst, mat)
    return AbDiagram(C, value, actions, name=name)


def dset_from_json(obj, workspace, name=""):
    _require_keys(obj, ("category", "sets", "maps"), what="presheaf")
    C = workspace.get("categories", obj["category"])
    sets = _mapping(obj["sets"], "presheaf sets")
    maps = _mapping(obj["maps"], "presheaf maps")
    return DSet(C, {o: [_element(x, "presheaf set element at %s" % o)
                        for x in _array(v, "presheaf set at %s" % o)] for o, v in sets.items()},
                {m: _element_table(t, "presheaf map at %s" % m) for m, t in maps.items()},
                name=name)


def _element_table(table, what):
    """A map of presheaf elements: a JSON object whose values are elements."""
    return {x: _element(y, what + " value") for x, y in _mapping(table, what).items()}


def dset_morphism_from_json(obj, workspace, name=""):
    _require_keys(obj, ("source", "target", "components"), what="presheaf morphism")
    components = _mapping(obj["components"], "presheaf morphism components")
    return DSetMorphism(workspace.get("dsets", obj["source"]),
                        workspace.get("dsets", obj["target"]),
                        {o: _element_table(t, "component at %s" % o) for o, t in components.items()})


def _simplex_table(table, what):
    """A map of simplex ids: a JSON object with string values."""
    for x in _mapping(table, what).values():
        if not isinstance(x, str):
            raise InputError("%s must map to simplex ids (strings), not %s" % (what, json.dumps(x)))
    return table


def _structure_maps(obj, what, level, degrees):
    """Faces or degeneracies of a level-``level`` set: {"n,i": table} ->
    {(n, i): table}, with n in ``degrees`` and 0 <= i <= n."""
    out = {}
    for key, table in _mapping(obj, "simplicial set " + what).items():
        parts = key.split(",")
        if len(parts) != 2:
            raise InputError('simplicial set %s key %r must be "n,i"' % (what, key))
        n, i = (_count(p, "simplicial set %s key %r" % (what, key)) for p in parts)
        if n not in degrees or i > n:
            raise InputError("simplicial set %s key %r names no map of a level-%d set"
                             % (what, key, level))
        out[(n, i)] = _simplex_table(table, "simplicial set %s %s" % (what, key))
    return out


def sset_from_json(obj):
    _require_keys(obj, ("level", "simplices", "faces", "degeneracies"), ("basepoint",),
                  what="simplicial set")
    level = _size(obj["level"], "simplicial set level", MAX_LEVEL)
    simplices = _array(obj["simplices"], "simplicial set simplices")
    for n, xs in enumerate(simplices):
        if not all(isinstance(x, str) for x in _array(xs, "simplices of degree %d" % n)):
            raise InputError("simplices of degree %d must be simplex ids (strings)" % n)
    basepoint = obj.get("basepoint")
    if basepoint is not None and not isinstance(basepoint, str):
        raise InputError("simplicial set basepoint must be a simplex id (a string)")
    faces = _structure_maps(obj["faces"], "faces", level, range(1, level + 1))
    degeneracies = _structure_maps(obj["degeneracies"], "degeneracies", level, range(level))
    return TruncSSet(level, simplices, faces, degeneracies, basepoint=basepoint)


def pointed_diagram_from_json(obj, workspace, name=""):
    if "kind" in _mapping(obj, "pointed diagram"):
        if obj["kind"] != "bg":
            raise InputError("unknown pointed diagram kind %s" % json.dumps(obj["kind"]))
        _require_keys(obj, ("kind", "diagram", "level"), what="pointed diagram")
        level = _size(obj["level"], "pointed diagram level", MAX_LEVEL)
        return bg_diagram(workspace.get("diagrams", obj["diagram"]), level)
    _require_keys(obj, ("category", "level", "values", "maps"), what="pointed diagram")
    C = workspace.get("categories", obj["category"])
    level = _size(obj["level"], "pointed diagram level", MAX_LEVEL)
    values = {o: sset_from_json(v)
              for o, v in _mapping(obj["values"], "pointed diagram values").items()}
    _require_values(C, values, "pointed diagram")
    actions = {}
    for mid, tables in _mapping(obj["maps"], "pointed diagram maps").items():
        if mid not in C.dom:
            raise InputError("pointed diagram references unknown morphism %s" % mid)
        what = "pointed diagram map at %s" % mid
        tables = [_simplex_table(t, what) for t in _array(tables, what)]
        actions[mid] = SSetMap(values[C.dom[mid]], values[C.cod[mid]], tables, pointed=True)
    return PointedDiagram(C, level, values, actions, name=name)


def system_from_json(obj, workspace, name=""):
    """Coefficient system over a derived index category.

    ``over`` picks the base: the opposite category of elements of a named
    presheaf, or the opposite factorization category of a named category.
    Systems are constant: ``constant_group`` or ``constant_abelian`` names
    the single group at every object.
    """
    _require_keys(obj, ("over",), ("constant_group", "constant_abelian"), what="system")
    over = obj["over"]
    _require_keys(over, ("kind",), ("dset", "category"), what="system base")
    if over["kind"] == "elements-op":
        _require_keys(over, ("kind", "dset"), what="system base over elements")
        X = workspace.get("dsets", over["dset"])
        E, _, _ = elements_with_parts(X)
        base = opposite(E)
    elif over["kind"] == "factorization-op":
        _require_keys(over, ("kind", "category"), what="system base over a factorization")
        C = workspace.get("categories", over["category"])
        base = factorization(C).category_op
    else:
        raise InputError("unknown system base kind %r" % over["kind"])
    if "constant_group" in obj:
        fp = free_product_from_json(obj["constant_group"], workspace)
        return constant_group_diagram(base, fp, name=name)
    if "constant_abelian" in obj:
        return constant_ab_diagram(base, fgab_from_json(obj["constant_abelian"]), name=name)
    raise InputError("system needs constant_group or constant_abelian")


class Workspace:
    """Named entities, one namespace per section.

    Each section maps a name to a zero-argument builder, which runs on the
    first lookup; its result is kept.  JSON entries (``load_file``,
    ``load_data``) and the built-in fixtures (``fixtures.register_builtins``)
    enter through ``register``, so files and built-ins share one namespace
    and a name repeated in a section is an input error, whatever its source
    and order.  A bare category file registers as the category ``main``.
    """

    # section -> (what one of its entries is called in messages, reader of one JSON entry)
    SECTIONS = {
        "categories": ("category", lambda obj, ws, name: category_from_json(obj, name=name)),
        "functors": ("functor", functor_from_json),
        "groups": ("group", lambda obj, ws, name: group_from_json(obj, name=name)),
        "presentations": ("presentation", lambda obj, ws, name: presentation_from_json(obj)),
        "diagrams": ("diagram", group_diagram_from_json),
        "abdiagrams": ("abdiagram", ab_diagram_from_json),
        "dsets": ("dset", dset_from_json),
        "dsetmaps": ("dsetmap", dset_morphism_from_json),
        "ssets": ("sset", lambda obj, ws, name: sset_from_json(obj)),
        "pointed_diagrams": ("pointed diagram", pointed_diagram_from_json),
        "systems": ("system", system_from_json),
    }

    def __init__(self):
        self._builders = {s: {} for s in self.SECTIONS}

    def register(self, section, name, build):
        """Add ``name`` to ``section``; ``build()`` makes the entity on first use."""
        if name in self._builders[section]:
            raise InputError("duplicate %s name %r" % (self.SECTIONS[section][0], name))
        self._builders[section][name] = functools.cache(build)

    def load_file(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.load_data(data, what=path)

    def load_data(self, data, what="workspace"):
        if not isinstance(data, dict):
            raise InputError("%s must hold a JSON object" % what)
        if "objects" in data:
            data = {"categories": {"main": data}}
        unknown = set(data) - set(self.SECTIONS)
        if unknown:
            raise InputError("%s has unknown sections: %s" % (what, ", ".join(sorted(unknown))))
        for section, (_, read) in self.SECTIONS.items():
            entries = data.get(section, {})
            if not isinstance(entries, dict):
                raise InputError("%s section %s must be a JSON object" % (what, section))
            for name, obj in entries.items():
                self.register(section, name, lambda r=read, o=obj, n=name: r(o, self, n))

    def get(self, section, name):
        """The entity ``name`` of ``section``, built on first use."""
        if not isinstance(name, str):
            raise InputError("%s are named by strings, not %s" % (section, json.dumps(name)))
        build = self._builders[section].get(name)
        if build is None:
            raise InputError("unknown %s %r" % (self.SECTIONS[section][0], name))
        return build()

    def validate_all(self):
        """Build every entity, section by section; raises on the first
        invalid one.  Returns the sorted names of each section."""
        report = {}
        for section, builders in self._builders.items():
            report[section] = sorted(builders)
            for name in report[section]:
                self.get(section, name)
        return report
