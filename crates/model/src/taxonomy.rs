//! The paper's three-level file-type taxonomy (Fig. 13).
//!
//! Level 1 splits *commonly used* from *non-commonly used* types; level 2
//! groups common types into eight groups (EOL, source code, scripts,
//! documents, archival, image data, databases, others); level 3 is the
//! specific type. [`FileKind`] enumerates the level-3 leaves the paper
//! names, each mapping to its [`TypeGroup`].

/// Level-2 type groups (Fig. 14).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TypeGroup {
    /// Executables, object code, and libraries.
    Eol,
    /// Source code.
    SourceCode,
    /// Scripts.
    Scripts,
    /// Documents (text, markup, PDF, ...).
    Documents,
    /// Archives (zip/gzip, bzip2, xz, tar).
    Archival,
    /// Image data files (PNG, JPEG, ...).
    ImageData,
    /// Database files.
    Database,
    /// Everything else (including the non-commonly-used level-1 branch).
    Other,
}

impl TypeGroup {
    /// All groups in the order the paper's figures present them.
    pub const ALL: [TypeGroup; 8] = [
        TypeGroup::Eol,
        TypeGroup::SourceCode,
        TypeGroup::Scripts,
        TypeGroup::Documents,
        TypeGroup::Archival,
        TypeGroup::ImageData,
        TypeGroup::Database,
        TypeGroup::Other,
    ];

    /// Short label used in figure rows ("EOL", "SC.", "Scr.", ...).
    pub fn label(self) -> &'static str {
        match self {
            TypeGroup::Eol => "EOL",
            TypeGroup::SourceCode => "SC.",
            TypeGroup::Scripts => "Scr.",
            TypeGroup::Documents => "Doc.",
            TypeGroup::Archival => "Arch.",
            TypeGroup::ImageData => "Img.",
            TypeGroup::Database => "DB.",
            TypeGroup::Other => "Oths.",
        }
    }
}

/// Level-3 leaf types. The set covers every type the paper's §IV-C calls
/// out by name, plus `OtherBinary`/`OtherText` catch-alls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    // --- EOL (Fig. 16) ---
    /// ELF relocatables, shared objects, executables.
    Elf,
    /// COFF object files.
    Coff,
    /// Mach-O binaries.
    MachO,
    /// Windows PE executables ("Microsoft executables").
    PeExecutable,
    /// Python byte-compiled files (.pyc) — the bulk of "Com." in Fig. 16.
    PythonBytecode,
    /// Compiled Java classes.
    JavaClass,
    /// Compiled terminfo entries.
    TerminfoCompiled,
    /// Debian binary packages (.deb).
    DebPackage,
    /// RPM binary packages.
    RpmPackage,
    /// Static/archive libraries (.a) and misc. libraries.
    Library,
    /// Other EOL files.
    OtherEol,

    // --- Source code (Fig. 17) ---
    CSource,
    Perl5Module,
    RubyModule,
    PascalSource,
    FortranSource,
    ApplesoftBasic,
    LispScheme,

    // --- Scripts (Fig. 18) ---
    PythonScript,
    AwkScript,
    RubyScript,
    PerlScript,
    PhpScript,
    Makefile,
    M4Macro,
    NodeScript,
    TclScript,
    ShellScript,
    OtherScript,

    // --- Documents (Fig. 19) ---
    AsciiText,
    Utf8Text,
    Iso8859Text,
    XmlHtml,
    PdfPs,
    LatexDoc,
    OtherDocument,

    // --- Archival (Fig. 20) ---
    ZipGzip,
    Bzip2,
    XzArchive,
    TarArchive,
    OtherArchive,

    // --- Image data (Fig. 22) ---
    Png,
    Jpeg,
    Svg,
    Gif,
    OtherImage,

    // --- Databases (Fig. 21) ---
    BerkeleyDb,
    MysqlDb,
    SqliteDb,
    OtherDb,

    // --- Other (level-1 non-common + media etc.) ---
    /// Video files (AVI, MPEG) — mentioned in §IV-C.
    Video,
    /// Unclassifiable binary data.
    OtherBinary,
    /// Empty files (the most-duplicated "file" in the dataset, §V-B).
    Empty,
}

impl FileKind {
    /// Level-2 group of this leaf type.
    pub fn group(self) -> TypeGroup {
        use FileKind::*;
        match self {
            Elf | Coff | MachO | PeExecutable | PythonBytecode | JavaClass | TerminfoCompiled
            | DebPackage | RpmPackage | Library | OtherEol => TypeGroup::Eol,
            CSource | Perl5Module | RubyModule | PascalSource | FortranSource | ApplesoftBasic
            | LispScheme => TypeGroup::SourceCode,
            PythonScript | AwkScript | RubyScript | PerlScript | PhpScript | Makefile | M4Macro
            | NodeScript | TclScript | ShellScript | OtherScript => TypeGroup::Scripts,
            AsciiText | Utf8Text | Iso8859Text | XmlHtml | PdfPs | LatexDoc | OtherDocument => {
                TypeGroup::Documents
            }
            ZipGzip | Bzip2 | XzArchive | TarArchive | OtherArchive => TypeGroup::Archival,
            Png | Jpeg | Svg | Gif | OtherImage => TypeGroup::ImageData,
            BerkeleyDb | MysqlDb | SqliteDb | OtherDb => TypeGroup::Database,
            Video | OtherBinary | Empty => TypeGroup::Other,
        }
    }

    /// Human-readable name used in figure rows.
    pub fn label(self) -> &'static str {
        use FileKind::*;
        match self {
            Elf => "ELF",
            Coff => "COFF",
            MachO => "Mach-O",
            PeExecutable => "PE",
            PythonBytecode => "Python pyc",
            JavaClass => "Java class",
            TerminfoCompiled => "terminfo",
            DebPackage => "deb",
            RpmPackage => "rpm",
            Library => "Lib.",
            OtherEol => "other EOL",
            CSource => "C/C++",
            Perl5Module => "Perl5 module",
            RubyModule => "Ruby module",
            PascalSource => "Pascal",
            FortranSource => "Fortran",
            ApplesoftBasic => "Applesoft basic",
            LispScheme => "Lisp/Scheme",
            PythonScript => "Python",
            AwkScript => "AWK",
            RubyScript => "Ruby",
            PerlScript => "Perl",
            PhpScript => "PHP",
            Makefile => "Make",
            M4Macro => "M4",
            NodeScript => "node",
            TclScript => "Tcl",
            ShellScript => "Bash/shell",
            OtherScript => "other script",
            AsciiText => "ASCII text",
            Utf8Text => "UTF-8/16 text",
            Iso8859Text => "ISO-8859 text",
            XmlHtml => "XML/HTML/XHTML",
            PdfPs => "PDF/PS",
            LatexDoc => "LaTeX",
            OtherDocument => "other doc",
            ZipGzip => "Zip/Gzip",
            Bzip2 => "Bzip2",
            XzArchive => "XZ",
            TarArchive => "Tar",
            OtherArchive => "other archive",
            Png => "PNG",
            Jpeg => "JPEG",
            Svg => "SVG",
            Gif => "GIF",
            OtherImage => "other image",
            BerkeleyDb => "Berkeley DB",
            MysqlDb => "MySQL",
            SqliteDb => "SQLite",
            OtherDb => "other DB",
            Video => "video",
            OtherBinary => "other binary",
            Empty => "empty",
        }
    }

    /// All leaf kinds in declaration order, so `ALL[k.index()] == k`.
    pub const ALL: [FileKind; FileKind::COUNT] = {
        use FileKind::*;
        [
            Elf, Coff, MachO, PeExecutable, PythonBytecode, JavaClass, TerminfoCompiled,
            DebPackage, RpmPackage, Library, OtherEol, CSource, Perl5Module, RubyModule,
            PascalSource, FortranSource, ApplesoftBasic, LispScheme, PythonScript, AwkScript,
            RubyScript, PerlScript, PhpScript, Makefile, M4Macro, NodeScript, TclScript,
            ShellScript, OtherScript, AsciiText, Utf8Text, Iso8859Text, XmlHtml, PdfPs, LatexDoc,
            OtherDocument, ZipGzip, Bzip2, XzArchive, TarArchive, OtherArchive, Png, Jpeg, Svg,
            Gif, OtherImage, BerkeleyDb, MysqlDb, SqliteDb, OtherDb, Video, OtherBinary, Empty,
        ]
    };

    /// Index into a dense per-kind table (stable across a run).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of enum variants (for dense tables).
    pub const COUNT: usize = FileKind::Empty as usize + 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_papers_examples() {
        assert_eq!(FileKind::Elf.group(), TypeGroup::Eol);
        assert_eq!(FileKind::PythonBytecode.group(), TypeGroup::Eol);
        assert_eq!(FileKind::CSource.group(), TypeGroup::SourceCode);
        assert_eq!(FileKind::PythonScript.group(), TypeGroup::Scripts);
        assert_eq!(FileKind::AsciiText.group(), TypeGroup::Documents);
        assert_eq!(FileKind::ZipGzip.group(), TypeGroup::Archival);
        assert_eq!(FileKind::Png.group(), TypeGroup::ImageData);
        assert_eq!(FileKind::SqliteDb.group(), TypeGroup::Database);
        assert_eq!(FileKind::Empty.group(), TypeGroup::Other);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in FileKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
    }

    #[test]
    fn indices_dense_and_unique() {
        assert_eq!(FileKind::ALL.len(), FileKind::COUNT);
        for k in FileKind::ALL {
            assert_eq!(FileKind::ALL[k.index()], k);
        }
    }

    #[test]
    fn group_labels_match_paper() {
        assert_eq!(TypeGroup::Eol.label(), "EOL");
        assert_eq!(TypeGroup::SourceCode.label(), "SC.");
        assert_eq!(TypeGroup::Database.label(), "DB.");
        assert_eq!(TypeGroup::ALL.len(), 8);
    }
}
