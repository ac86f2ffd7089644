//! CSV writing with RFC-4180-style quoting.
//!
//! The consolidated failure database (step 4 in the paper's pipeline)
//! and the Stage IV tables are exported as CSV (`disengage export`).
//! There is no reader: the pipeline never imports CSV.

use crate::frame::DataFrame;
use crate::value::Value;
use crate::Result;
use std::path::Path;

/// Serializes a frame to CSV text (with header).
///
/// Fields containing commas, quotes, or line breaks (`\n`, `\r`) are
/// quoted; embedded quotes are doubled. Null cells render as empty
/// fields, and whole floats keep a trailing `.0`.
pub fn write_str(df: &DataFrame) -> String {
    let mut out = String::new();
    let header: Vec<String> = df.names().iter().map(|n| escape(n)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in df.rows() {
        let fields: Vec<String> = row.iter().map(|v| escape(&render_field(v))).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Writes a frame to a CSV file.
///
/// # Errors
///
/// Returns [`FrameError::Io`](crate::FrameError::Io) on filesystem
/// failure.
pub fn write_file<P: AsRef<Path>>(df: &DataFrame, path: P) -> Result<()> {
    std::fs::write(path, write_str(df))?;
    Ok(())
}

/// Renders a cell so its column's type stays readable: whole floats
/// keep a trailing `.0`, so they read as floats, not integers. (An
/// infinite or NaN float has a NaN `fract()`, so it renders as `inf` or
/// `NaN`.)
fn render_field(v: &Value) -> String {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
            format!("{f:.1}")
        }
        other => other.to_string(),
    }
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::DType;

    fn frame(columns: Vec<(&str, Vec<Value>)>) -> DataFrame {
        let mut df = DataFrame::new(Vec::<(String, Column)>::new()).unwrap();
        for (name, values) in columns {
            df.add_column(name, values.into_iter().collect()).unwrap();
        }
        df
    }

    #[test]
    fn null_cell_is_an_empty_field() {
        let df = frame(vec![("x", vec![Value::Float(1.0), Value::Null])]);
        assert_eq!(write_str(&df), "x\n1.0\n\n");
    }

    #[test]
    fn whole_floats_keep_their_point() {
        let df = frame(vec![(
            "x",
            vec![
                Value::Float(3.0),
                Value::Float(-0.0),
                Value::Float(0.125),
                Value::Float(1e15),
            ],
        )]);
        assert_eq!(write_str(&df), "x\n3.0\n-0.0\n0.125\n1000000000000000\n");
    }

    #[test]
    fn non_finite_floats_render_plainly() {
        let df = frame(vec![(
            "x",
            vec![
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(f64::NAN),
            ],
        )]);
        assert_eq!(write_str(&df), "x\ninf\n-inf\nNaN\n");
    }

    #[test]
    fn typed_cells_render_plainly() {
        let df = frame(vec![
            ("i", vec![Value::Int(-4)]),
            ("b", vec![Value::Bool(true)]),
            ("s", vec![Value::Str("waymo".into())]),
        ]);
        assert_eq!(write_str(&df), "i,b,s\n-4,true,waymo\n");
    }

    #[test]
    fn each_special_character_forces_quoting() {
        for (field, quoted) in [
            ("a,b", "\"a,b\""),
            ("say \"hi\"", "\"say \"\"hi\"\"\""),
            ("two\nlines", "\"two\nlines\""),
            ("cr\rhere", "\"cr\rhere\""),
            ("plain text", "plain text"),
        ] {
            let df = frame(vec![("f", vec![Value::Str(field.into())])]);
            assert_eq!(write_str(&df), format!("f\n{quoted}\n"), "{field:?}");
        }
    }

    #[test]
    fn header_names_are_quoted_too() {
        let df = frame(vec![
            ("a,b", vec![Value::Int(1)]),
            ("c", vec![Value::Int(2)]),
        ]);
        assert_eq!(write_str(&df), "\"a,b\",c\n1,2\n");
    }

    #[test]
    fn empty_frame_writes_only_its_header() {
        let df = DataFrame::new(vec![("a", Column::empty(DType::Str))]).unwrap();
        assert_eq!(write_str(&df), "a\n");
    }

    #[test]
    fn write_file_writes_write_str() {
        let df = frame(vec![("x", vec![Value::Float(1.0), Value::Null])]);
        let path = std::env::temp_dir().join(format!("df-csv-{}.csv", std::process::id()));
        write_file(&df, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, write_str(&df));
        let missing = std::env::temp_dir()
            .join("no-such-dir-for-df-csv")
            .join("x.csv");
        assert!(matches!(
            write_file(&df, missing),
            Err(crate::FrameError::Io(_))
        ));
    }
}
