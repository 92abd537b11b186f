def pytest_terminal_summary(terminalreporter):
    # Times and peaks are printed, not bounded: show what each passing check printed, under -q too.
    for report in terminalreporter.stats.get("passed", []):
        terminalreporter.write(report.capstdout)
