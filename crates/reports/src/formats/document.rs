//! Whole-document model: a scanned filing as it arrives from the DMV.

use crate::types::{Manufacturer, ReportYear};

/// What a raw filing contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocumentKind {
    /// An annual disengagement report (log lines + mileage table).
    Disengagements,
    /// A single OL 316 accident report.
    Accident,
}

/// One raw filing: the text of a scanned document plus its provenance.
///
/// In the real pipeline this text is the *output of OCR* over a scanned
/// PDF; the `ocr` crate produces exactly this shape from rasterized
/// synthetic documents.
#[derive(Debug, Clone, PartialEq)]
pub struct RawDocument {
    /// Who filed it.
    pub manufacturer: Manufacturer,
    /// Which annual release it belongs to.
    pub report_year: ReportYear,
    /// What kind of filing it is.
    pub kind: DocumentKind,
    /// The document text (possibly OCR-noisy).
    pub text: String,
}

impl RawDocument {
    /// Creates a document.
    pub fn new(
        manufacturer: Manufacturer,
        report_year: ReportYear,
        kind: DocumentKind,
        text: impl Into<String>,
    ) -> RawDocument {
        RawDocument {
            manufacturer,
            report_year,
            kind,
            text: text.into(),
        }
    }

    /// Splits a disengagement filing into its log-line section and its
    /// mileage-table section (separated by the `MILEAGE` header).
    ///
    /// The header is the first `MILEAGE` that begins a line, after
    /// nothing but whitespace: every layout starts a log line with a
    /// structured field, so a description that mentions the word stays
    /// in its log line. What follows the word on its line is not
    /// checked, since simulated OCR leaves speckle there.
    ///
    /// Returns `(log_lines_text, mileage_text)`; the mileage text is empty
    /// when the document carries no table.
    pub fn sections(&self) -> (&str, &str) {
        let text = self.text.as_str();
        let header = text.match_indices("MILEAGE").find(|&(pos, _)| {
            let line_start = text[..pos].rfind('\n').map_or(0, |nl| nl + 1);
            text[line_start..pos].trim().is_empty()
        });
        header.map_or((text, ""), |(pos, _)| text.split_at(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_on_mileage_header() {
        let doc = RawDocument::new(
            Manufacturer::Waymo,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            "line 1\nline 2\nMILEAGE\ncar-0 2016-05 10.0\n",
        );
        let (logs, mileage) = doc.sections();
        assert!(logs.contains("line 2"));
        assert!(mileage.starts_with("MILEAGE"));
        assert!(mileage.contains("car-0"));
    }

    #[test]
    fn sections_without_mileage() {
        let doc = RawDocument::new(
            Manufacturer::Tesla,
            ReportYear::R2016,
            DocumentKind::Disengagements,
            "only logs\n",
        );
        let (logs, mileage) = doc.sections();
        assert_eq!(logs, "only logs\n");
        assert!(mileage.is_empty());
    }
}
