#ifndef IMC_TESTS_GOLDEN_HPP
#define IMC_TESTS_GOLDEN_HPP

/**
 * @file
 * Byte comparison against the recorded answers in tests/golden/.
 *
 * A test binary that uses this header gets the directory through the
 * IMC_GOLDEN_DIR compile definition (tests/CMakeLists.txt). Doubles in
 * the recorded files are printed as hexfloat (or with 17 significant
 * digits), so equal bytes mean bit-identical values.
 *
 * Re-recording after a deliberate change: run the test; every
 * mismatch writes the actual output to <name>.got in the working
 * directory and prints the diff command. Review the diff, then copy
 * the .got file over tests/golden/<name>.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace imc::testing_golden {

/**
 * Compare @p actual against the recorded golden file @p name in
 * IMC_GOLDEN_DIR. On a mismatch the actual output is written to the
 * test's working directory and its path printed, so a deliberate
 * change can be reviewed with diff and copied over the recorded file.
 */
inline void
expect_matches_golden(const std::string& name,
                      const std::string& actual)
{
    const std::string golden_path =
        std::string(IMC_GOLDEN_DIR) + "/" + name;
    std::ifstream in(golden_path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (in && want.str() == actual)
        return;
    const auto dump = std::filesystem::absolute(name + ".got");
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << "output differs from recorded " << golden_path
                  << "\nactual output written to " << dump.string()
                  << "\ndiff " << golden_path << ' ' << dump.string();
}

} // namespace imc::testing_golden

#endif // IMC_TESTS_GOLDEN_HPP
