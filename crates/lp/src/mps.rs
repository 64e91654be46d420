//! Reading and writing problems in (free-form) MPS format.
//!
//! MPS is the lingua franca of LP/MILP solvers; supporting it lets
//! problems built here be cross-checked against external solvers and
//! vice versa. The dialect implemented is free-form MPS with the
//! universally supported sections:
//!
//! * `NAME`, `ROWS` (`N`/`L`/`G`/`E`), `COLUMNS` (incl. integrality
//!   `MARKER` lines), `RHS`, `RANGES`, `BOUNDS`
//!   (`UP LO FX FR MI PL BV UI LI`), `OBJSENSE`, `ENDATA`;
//! * `*` comment lines and blank lines.
//!
//! A `RANGES` entry on row `r` with value `R` turns the row into a ranged
//! constraint per the standard convention; since [`Problem`] rows carry a
//! single relation, the reader materializes the second side as an extra
//! row, which is semantically identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::SolveError;
use crate::model::{Problem, Relation, Sense, VarId};

/// A parse failure, with the 1-based line number where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpsParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for MpsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mps parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MpsParseError {}

impl From<MpsParseError> for SolveError {
    fn from(_: MpsParseError) -> Self {
        // Parse errors surface before solving; map to the generic
        // numerical bucket only when converted for convenience.
        SolveError::Singular
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Rows,
    Columns,
    Rhs,
    Ranges,
    Bounds,
    ObjSense,
}

/// Parses a free-form MPS document into a [`Problem`].
///
/// The objective row is the first `N` row; additional `N` rows are
/// ignored (as most solvers do). Variables default to `[0, ∞)` bounds.
///
/// # Errors
///
/// Returns [`MpsParseError`] on malformed input, unknown rows/sections,
/// or unparsable numbers.
///
/// # Examples
///
/// ```
/// let text = "\
/// NAME          demo
/// ROWS
///  N  COST
///  L  LIM1
/// COLUMNS
///     X1  COST  1.0  LIM1  2.0
///     X2  COST  3.0  LIM1  1.0
/// RHS
///     RHS  LIM1  10.0
/// BOUNDS
///  UP BND  X1  4.0
/// ENDATA
/// ";
/// let p = metis_lp::mps::parse(text)?;
/// assert_eq!(p.num_vars(), 2);
/// assert_eq!(p.num_constraints(), 1);
/// # Ok::<(), metis_lp::mps::MpsParseError>(())
/// ```
pub fn parse(text: &str) -> Result<Problem, MpsParseError> {
    let err = |line: usize, message: &str| MpsParseError {
        line,
        message: message.to_string(),
    };

    let mut sense = Sense::Minimize;
    // Row name → (relation, order). The objective row is special-cased.
    let mut obj_row: Option<String> = None;
    let mut row_rel: BTreeMap<String, Relation> = BTreeMap::new();
    let mut row_order: Vec<String> = Vec::new();
    // Column name → var id, with accumulated entries.
    let mut col_ids: BTreeMap<String, VarId> = BTreeMap::new();
    let mut col_order: Vec<String> = Vec::new();
    let mut obj_coef: BTreeMap<String, f64> = BTreeMap::new();
    let mut entries: BTreeMap<(String, String), f64> = BTreeMap::new(); // (row, col)
    let mut rhs: BTreeMap<String, f64> = BTreeMap::new();
    let mut ranges: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut bounds: Vec<(String, String, Option<f64>, usize)> = Vec::new(); // (type, col, value)
    let mut integer_cols: Vec<String> = Vec::new();

    let mut section = Section::None;
    let mut in_int_marker = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let starts_flush = !raw.starts_with(' ') && !raw.starts_with('\t');
        let fields: Vec<&str> = line.split_whitespace().collect();
        if starts_flush {
            // Section header.
            match fields[0].to_ascii_uppercase().as_str() {
                "NAME" => continue,
                "OBJSENSE" => {
                    section = Section::ObjSense;
                    // Inline form: OBJSENSE MAX
                    if let Some(word) = fields.get(1) {
                        sense = parse_objsense(word).ok_or_else(|| {
                            err(lineno, &format!("unknown objective sense {word}"))
                        })?;
                        section = Section::None;
                    }
                    continue;
                }
                "ROWS" => {
                    section = Section::Rows;
                    continue;
                }
                "COLUMNS" => {
                    section = Section::Columns;
                    continue;
                }
                "RHS" => {
                    section = Section::Rhs;
                    continue;
                }
                "RANGES" => {
                    section = Section::Ranges;
                    continue;
                }
                "BOUNDS" => {
                    section = Section::Bounds;
                    continue;
                }
                "ENDATA" => break,
                other => return Err(err(lineno, &format!("unknown section {other}"))),
            }
        }

        match section {
            Section::None => return Err(err(lineno, "data before any section")),
            Section::ObjSense => {
                sense = parse_objsense(fields[0]).ok_or_else(|| {
                    err(lineno, &format!("unknown objective sense {}", fields[0]))
                })?;
                section = Section::None;
            }
            Section::Rows => {
                if fields.len() != 2 {
                    return Err(err(lineno, "ROWS line needs `<type> <name>`"));
                }
                let name = fields[1].to_string();
                match fields[0].to_ascii_uppercase().as_str() {
                    "N" => {
                        if obj_row.is_none() {
                            obj_row = Some(name);
                        }
                    }
                    "L" => {
                        row_rel.insert(name.clone(), Relation::Le);
                        row_order.push(name);
                    }
                    "G" => {
                        row_rel.insert(name.clone(), Relation::Ge);
                        row_order.push(name);
                    }
                    "E" => {
                        row_rel.insert(name.clone(), Relation::Eq);
                        row_order.push(name);
                    }
                    other => return Err(err(lineno, &format!("unknown row type {other}"))),
                }
            }
            Section::Columns => {
                // MARKER lines toggle integrality.
                if fields.len() >= 3 && fields[1].eq_ignore_ascii_case("'MARKER'") {
                    match fields[2].to_ascii_uppercase().as_str() {
                        "'INTORG'" => in_int_marker = true,
                        "'INTEND'" => in_int_marker = false,
                        other => return Err(err(lineno, &format!("unknown marker {other}"))),
                    }
                    continue;
                }
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(err(lineno, "COLUMNS line needs `<col> (<row> <val>)+`"));
                }
                let col = fields[0].to_string();
                if !col_ids.contains_key(&col) {
                    col_ids.insert(col.clone(), VarId(col_order.len() as u32));
                    col_order.push(col.clone());
                    if in_int_marker {
                        integer_cols.push(col.clone());
                    }
                }
                for pair in fields[1..].chunks(2) {
                    let row = pair[0].to_string();
                    let value = number(pair[1])
                        .ok_or_else(|| err(lineno, &format!("bad number {}", pair[1])))?;
                    if Some(&row) == obj_row.as_ref() {
                        *obj_coef.entry(col.clone()).or_insert(0.0) += value;
                    } else if row_rel.contains_key(&row) {
                        *entries.entry((row, col.clone())).or_insert(0.0) += value;
                    } else {
                        return Err(err(lineno, &format!("unknown row {row}")));
                    }
                }
            }
            Section::Rhs => {
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(err(lineno, "RHS line needs `<set> (<row> <val>)+`"));
                }
                for pair in fields[1..].chunks(2) {
                    let row = pair[0].to_string();
                    let value = number(pair[1])
                        .ok_or_else(|| err(lineno, &format!("bad number {}", pair[1])))?;
                    if Some(&row) == obj_row.as_ref() {
                        // Objective constant; ignored (common convention).
                        continue;
                    }
                    if !row_rel.contains_key(&row) {
                        return Err(err(lineno, &format!("unknown row {row}")));
                    }
                    rhs.insert(row, value);
                }
            }
            Section::Ranges => {
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(err(lineno, "RANGES line needs `<set> (<row> <val>)+`"));
                }
                for pair in fields[1..].chunks(2) {
                    let row = pair[0].to_string();
                    let value = number(pair[1])
                        .ok_or_else(|| err(lineno, &format!("bad number {}", pair[1])))?;
                    if !row_rel.contains_key(&row) {
                        return Err(err(lineno, &format!("unknown row {row}")));
                    }
                    ranges.insert(row, (value, lineno));
                }
            }
            Section::Bounds => {
                if fields.len() < 3 {
                    return Err(err(lineno, "BOUNDS line needs `<type> <set> <col> [val]`"));
                }
                let btype = fields[0].to_ascii_uppercase();
                let col = fields[2].to_string();
                let value = fields
                    .get(3)
                    .map(|v| number(v).ok_or_else(|| err(lineno, &format!("bad number {v}"))))
                    .transpose()?;
                bounds.push((btype, col, value, lineno));
            }
        }
    }

    let obj_row = obj_row.ok_or_else(|| err(0, "no objective (N) row"))?;
    let _ = obj_row;

    // Assemble the Problem.
    let mut p = Problem::new(sense);
    for col in &col_order {
        let obj = obj_coef.get(col).copied().unwrap_or(0.0);
        p.add_var(obj, 0.0, f64::INFINITY);
    }
    for col in &integer_cols {
        p.set_integer(col_ids[col], true);
    }
    // Bounds, applied in file order.
    for (btype, col, value, lineno) in bounds {
        let id = *col_ids
            .get(&col)
            .ok_or_else(|| err(lineno, &format!("bound on unknown column {col}")))?;
        let (lo, up) = p.bounds(id);
        let need = |v: Option<f64>| v.ok_or_else(|| err(lineno, "bound type needs a value"));
        let (nlo, nup) = match btype.as_str() {
            "UP" => (lo, need(value)?),
            "LO" => (need(value)?, up),
            "FX" => {
                let v = need(value)?;
                (v, v)
            }
            "FR" => (f64::NEG_INFINITY, f64::INFINITY),
            "MI" => (f64::NEG_INFINITY, up),
            "PL" => (lo, f64::INFINITY),
            "BV" => {
                p.set_integer(id, true);
                (0.0, 1.0)
            }
            "UI" => {
                p.set_integer(id, true);
                (lo, need(value)?)
            }
            "LI" => {
                p.set_integer(id, true);
                (need(value)?, up)
            }
            other => return Err(err(lineno, &format!("unknown bound type {other}"))),
        };
        if nlo > nup {
            return Err(err(
                lineno,
                &format!("bound makes {col} empty: [{nlo}, {nup}]"),
            ));
        }
        p.set_bounds(id, nlo, nup);
    }

    for row in &row_order {
        let rel = row_rel[row];
        let b = rhs.get(row).copied().unwrap_or(0.0);
        let terms: Vec<(VarId, f64)> = col_order
            .iter()
            .filter_map(|col| {
                entries
                    .get(&(row.clone(), col.clone()))
                    .map(|&v| (col_ids[col], v))
            })
            .collect();
        p.add_constraint(terms.iter().copied(), rel, b);
        // RANGES: add the mirrored side.
        if let Some(&(r, lineno)) = ranges.get(row) {
            let (rel2, b2) = match rel {
                Relation::Le => (Relation::Ge, b - r.abs()),
                Relation::Ge => (Relation::Le, b + r.abs()),
                // E row: range sign picks the side per the MPS convention.
                Relation::Eq => {
                    if r >= 0.0 {
                        (Relation::Le, b + r)
                    } else {
                        (Relation::Ge, b + r)
                    }
                }
            };
            if b2.is_nan() {
                return Err(err(
                    lineno,
                    &format!("range {r} on row {row} leaves no bound"),
                ));
            }
            p.add_constraint(terms.iter().copied(), rel2, b2);
        }
    }

    Ok(p)
}

/// A numeric field; NaN is not a number a problem can hold.
fn number(field: &str) -> Option<f64> {
    field.parse::<f64>().ok().filter(|v| !v.is_nan())
}

fn parse_objsense(word: &str) -> Option<Sense> {
    match word.to_ascii_uppercase().as_str() {
        "MAX" | "MAXIMIZE" => Some(Sense::Maximize),
        "MIN" | "MINIMIZE" => Some(Sense::Minimize),
        _ => None,
    }
}

/// Serializes a [`Problem`] as free-form MPS.
///
/// Variables are named `X0, X1, …` and rows `R0, R1, …`; the objective
/// row is `OBJ`. Round-trips through [`parse`] reproduce the problem
/// (modulo the generated names).
pub fn write(problem: &Problem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "NAME          METIS_LP");
    if problem.sense() == Sense::Maximize {
        let _ = writeln!(out, "OBJSENSE\n    MAX");
    }
    let _ = writeln!(out, "ROWS");
    let _ = writeln!(out, " N  OBJ");
    for (i, rel) in problem.row_relations().iter().enumerate() {
        let t = match rel {
            Relation::Le => 'L',
            Relation::Ge => 'G',
            Relation::Eq => 'E',
        };
        let _ = writeln!(out, " {t}  R{i}");
    }
    let _ = writeln!(out, "COLUMNS");
    // Group entries per column.
    let by_col = problem.entries_by_column();
    let mut int_open = false;
    let mut marker = 0usize;
    for (j, col_entries) in by_col.iter().enumerate() {
        let id = problem.var(j);
        let is_int = problem.is_integer(id);
        if is_int != int_open {
            let word = if is_int { "'INTORG'" } else { "'INTEND'" };
            let _ = writeln!(out, "    MARKER{marker}  'MARKER'  {word}");
            marker += 1;
            int_open = is_int;
        }
        let obj = problem.objective_coeff(id);
        if obj != 0.0 {
            let _ = writeln!(out, "    X{j}  OBJ  {obj}");
        }
        for &(row, v) in col_entries {
            let _ = writeln!(out, "    X{j}  R{row}  {v}");
        }
        // Columns with no entries at all still need to exist: emit a
        // zero objective entry so parsers register them.
        if obj == 0.0 && col_entries.is_empty() {
            let _ = writeln!(out, "    X{j}  OBJ  0.0");
        }
    }
    if int_open {
        let _ = writeln!(out, "    MARKER{marker}  'MARKER'  'INTEND'");
    }
    let _ = writeln!(out, "RHS");
    for (i, &b) in problem.row_rhs().iter().enumerate() {
        if b != 0.0 {
            let _ = writeln!(out, "    RHS  R{i}  {b}");
        }
    }
    let _ = writeln!(out, "BOUNDS");
    for j in 0..problem.num_vars() {
        let id = problem.var(j);
        let (lo, up) = problem.bounds(id);
        match (lo == 0.0, up.is_infinite()) {
            (true, true) => {} // default bounds
            _ => {
                if lo == up {
                    let _ = writeln!(out, " FX BND  X{j}  {lo}");
                } else {
                    if lo.is_infinite() {
                        let _ = writeln!(out, " MI BND  X{j}");
                    } else if lo != 0.0 {
                        let _ = writeln!(out, " LO BND  X{j}  {lo}");
                    }
                    if up.is_finite() {
                        let _ = writeln!(out, " UP BND  X{j}  {up}");
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "ENDATA");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
* a classic toy problem
NAME          demo
ROWS
 N  COST
 L  LIM1
 G  LIM2
 E  EQ1
COLUMNS
    X1  COST  1.0  LIM1  1.0
    X1  LIM2  1.0
    MARKER0  'MARKER'  'INTORG'
    X2  COST  2.0  LIM1  1.0
    X2  EQ1  -1.0
    MARKER1  'MARKER'  'INTEND'
    X3  COST  -1.0  EQ1  1.0
RHS
    RHS  LIM1  4.0  LIM2  1.0
BOUNDS
 UP BND  X1  4.0
 BV BND  X2
ENDATA
";

    #[test]
    fn parses_sections_and_types() {
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 3);
        assert_eq!(p.sense(), Sense::Minimize);
        assert!(p.is_integer(p.var(1)), "marker sets integrality");
        assert_eq!(p.bounds(p.var(0)), (0.0, 4.0));
        assert_eq!(p.bounds(p.var(1)), (0.0, 1.0));
        assert_eq!(p.bounds(p.var(2)), (0.0, f64::INFINITY));
    }

    #[test]
    fn parsed_problem_solves() {
        let p = parse(SAMPLE).unwrap();
        let s = p.solve().unwrap();
        assert!(p.max_violation(s.values()) < 1e-7);
    }

    #[test]
    fn objsense_max() {
        let text = "NAME x\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  R0\nCOLUMNS\n    A  OBJ  1.0  R0  1.0\nRHS\n    RHS  R0  3.0\nENDATA\n";
        let p = parse(text).unwrap();
        assert_eq!(p.sense(), Sense::Maximize);
        let s = p.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ranges_make_two_sided_rows() {
        // L row with rhs 10 and range 4 means 6 ≤ a·x ≤ 10.
        let text = "NAME x\nROWS\n N  OBJ\n L  R0\nCOLUMNS\n    A  OBJ  1.0  R0  1.0\nRHS\n    RHS  R0  10.0\nRANGES\n    RNG  R0  4.0\nENDATA\n";
        let p = parse(text).unwrap();
        assert_eq!(p.num_constraints(), 2);
        let s = p.solve().unwrap(); // min A s.t. 6 ≤ A ≤ 10
        assert!((s.objective() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn error_reports_line() {
        let text = "NAME x\nROWS\n N  OBJ\nCOLUMNS\n    A  NOPE  1.0\nENDATA\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("unknown row"));
    }

    #[test]
    fn rejects_unknown_section() {
        let e = parse("GARBAGE\n").unwrap_err();
        assert!(e.message.contains("unknown section"));
    }

    #[test]
    fn export_is_byte_deterministic() {
        // Column/row order must come from the document and the ordered
        // maps, never from hash iteration: two independent parses must
        // serialize byte-identically, and the serialized form must be a
        // fixed point of parse ∘ write.
        let a = write(&parse(SAMPLE).unwrap());
        let b = write(&parse(SAMPLE).unwrap());
        assert_eq!(a, b, "independent parses must export identically");
        let c = write(&parse(&a).unwrap());
        assert_eq!(a, c, "write ∘ parse must be a fixed point");
    }

    #[test]
    fn roundtrip_preserves_optimum() {
        use crate::model::{Problem, Relation, Sense};
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_int_var(5.0, 0.0, 7.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);

        let text = write(&p);
        let q = parse(&text).unwrap();
        assert_eq!(q.num_vars(), p.num_vars());
        assert_eq!(q.num_constraints(), p.num_constraints());
        assert_eq!(q.sense(), Sense::Maximize);
        assert!(q.is_integer(q.var(1)));

        let sp = p.solve().unwrap();
        let sq = q.solve().unwrap();
        assert!((sp.objective() - sq.objective()).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_negative_and_free_bounds() {
        use crate::model::{Problem, Relation, Sense};
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
        let y = p.add_var(1.0, -2.5, 2.5);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, -4.0);
        let text = write(&p);
        let q = parse(&text).unwrap();
        assert_eq!(q.bounds(q.var(0)), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(q.bounds(q.var(1)), (-2.5, 2.5));
        let (sp, sq) = (p.solve().unwrap(), q.solve().unwrap());
        assert!((sp.objective() - sq.objective()).abs() < 1e-9);
    }
}
