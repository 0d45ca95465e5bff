# Retired engine values must fail through dsa_cli with an error that names
# the flag or variable and the values still allowed. Invoked via
#   cmake -DDSA_CLI=... -P cli_retired.cmake
function(expect_rejected label expected)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
  if(status EQUAL 0)
    message(FATAL_ERROR "${label}: dsa_cli accepted a retired value")
  endif()
  string(FIND "${stderr}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "${label}: error does not mention '${expected}'\n--- stderr ---\n${stderr}")
  endif()
endfunction()

expect_rejected("--engine batch" "--engine: unknown engine 'batch' (want sparse or dense)"
  "${DSA_CLI}" pra --engine batch --rounds 2)
expect_rejected("DSA_ENGINE=batch" "DSA_ENGINE='batch' is invalid: expected one of sparse|dense"
  "${CMAKE_COMMAND}" -E env DSA_ENGINE=batch "${DSA_CLI}" pra --rounds 2)
expect_rejected("--batch-width" "unknown flag --batch-width"
  "${DSA_CLI}" pra --batch-width 4 --rounds 2)
